// Serving side of the benchmark: drives daemon::Daemon (and, in traced
// runs, the same public stage calls the daemon composes) over a generated
// CSV trace. Shared by the serve_* workloads and by train_deploy, which
// serves its held-out mix through a freshly trained model.
#pragma once

#include <functional>
#include <string>

#include "bench.hpp"
#include "daemon/daemon.hpp"
#include "io/overload.hpp"
#include "switchsim/pipeline.hpp"

namespace perfbench {

namespace io = iguard::io;
namespace switchsim = iguard::switchsim;

struct ServeSpec {
  std::size_t shards = 2;
  switchsim::PipelineConfig pipeline;  // n, flow slots; labels are forced off
  io::OverloadConfig overload;         // disabled = pass-through gate
  /// > 0: records are written into a pipe at this open-loop rate and served
  /// through an fd source (SourceConfig::Kind::kFd); 0: a file source.
  double paced_rate_pps = 0.0;

  bool fd_source() const { return paced_rate_pps > 0.0; }
};

/// A generated trace on disk plus what the checks need to know about it.
struct ServeInput {
  std::string csv_path;
  std::string spans_path;  // traced runs dump their spans here
  std::size_t records = 0;
  std::size_t bytes = 0;
};

struct ServeResult {
  double pps = 0.0;         // records offered / wall time, over the timed passes
  double latency_ms = 0.0;  // paced: per-packet p50; closed loop: mean pass time
  double f1 = 0.0;          // per-packet F1 of the served verdicts
  double setup_s = 0.0;     // median of deploy() + Daemon construction
  double peak_rss_mb = 0.0; // VmHWM right after the timed passes
};

/// Deploys the model for one pass and returns it: the serve workloads
/// compile both whitelists again, train_deploy hands back its trained model.
using DeployFn = std::function<switchsim::DeployedModel()>;

/// Closed-loop or paced serving for `seconds` (after one warm-up pass), with
/// every pass deployed through `deploy` and checked against
/// io::ingest_replay_sharded over the same bytes.
/// Adds the named workload numbers to rep.detail and the path mix to the
/// stamp; the caller reports the end-to-end metrics. With `reset_rss` the
/// VmHWM peak is reset after the warm-up pass.
ServeResult measure_serving(const ServeSpec& spec, const ServeInput& in, const DeployFn& deploy,
                            double seconds, bool reset_rss, Report& rep);

struct TraceTotals {
  double wall_s = 0.0;       // traced wall time
  double self_s = 0.0;       // sum of layer self times inside it
  double untraced_s = 0.0;   // the same work untraced
};

/// Traced run: untraced composition (registry on/off), Daemon::run_synchronous,
/// the traced composition, and one threaded Daemon::run sampled for ring
/// depth. Reports the serving per-layer metrics and returns the traced and
/// untraced times the caller turns into closure and overhead.
TraceTotals measure_serving_traced(const ServeSpec& spec, const ServeInput& in,
                                   const switchsim::DeployedModel& dm, double seconds,
                                   Report& rep);

}  // namespace perfbench
