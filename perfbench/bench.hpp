// Shared pieces of the iGuard serving/deployment benchmark: the run
// options, the metric report, timing helpers, and the span tracer used by
// the traced (per-layer) runs. See README.md for the workloads and the
// definition of every metric.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch files (generated traces, span dumps)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` is the result-line set (end-to-end
/// with tracing off, per-layer with tracing on); `detail` holds the
/// workload-specific named numbers and `stamp` the host/input description.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> stamp;  // key -> JSON value
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks

  void metric(std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), v, std::move(unit)});
  }
  void info(std::string name, double v, std::string unit) {
    detail.push_back({std::move(name), v, std::move(unit)});
  }
  void stamp_num(std::string key, double v);
  void stamp_str(std::string key, const std::string& v);
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size (VmHWM) in MB, and its reset (clear_refs 5), so a
/// run can exclude the memory its input generator touched.
double peak_rss_mb();
bool reset_peak_rss();

std::string json_escape(const std::string& s);

// --- span tracer ------------------------------------------------------------

/// Largest accepted share of a traced run's wall time that falls outside
/// every layer span (benchmark loop glue plus span bookkeeping).
inline constexpr double kClosureTolerance = 0.10;

/// Layers a span can belong to. Serving layers follow the daemon's stage
/// order; training layers follow core::IGuard::fit.
enum class Layer : std::uint8_t {
  kSource = 0,
  kFramer,
  kReader,
  kGate,
  kRing,
  kDispatch,
  kPipeline,
  kController,
  kFeatures,
  kTeacher,
  kForest,
  kWhitelist,
  kPlModel,
  kEngine,
  kCount,
};
const char* layer_name(Layer l);
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// In-memory span recorder. Spans nest on one thread (a stack); a span's
/// self time is its duration minus the time its child spans cover, and is
/// accumulated per layer as spans end, so per-layer totals cover every span
/// even though only the first `log_cap` spans are kept for the dump.
class Tracer {
 public:
  struct Span {
    std::int64_t start_ns, end_ns;
    std::uint32_t batch;   // spans of one reader batch share this id
    std::int32_t parent;   // index into the log, -1 = none (or not logged)
    Layer layer;
  };

  explicit Tracer(std::size_t log_cap = 200000) : log_cap_(log_cap) { log_.reserve(log_cap); }

  void begin(Layer l) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().log_index;
    std::int32_t idx = -1;
    if (log_.size() < log_cap_) {
      idx = static_cast<std::int32_t>(log_.size());
      log_.push_back({0, 0, batch_, parent, l});
    }
    stack_.push_back({now_ns(), 0, idx, l});
  }

  /// Ends the innermost span; returns its self time in ns.
  std::int64_t end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t t = now_ns();
    const std::int64_t dur = t - f.start;
    const std::int64_t self = dur - f.child_ns;
    self_ns_[static_cast<std::size_t>(f.layer)] += self;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.log_index >= 0) {
      log_[static_cast<std::size_t>(f.log_index)].start_ns = f.start;
      log_[static_cast<std::size_t>(f.log_index)].end_ns = t;
    }
    return self;
  }

  void set_batch(std::uint32_t b) { batch_ = b; }
  std::uint32_t batch() const { return batch_; }

  std::int64_t self_ns(Layer l) const { return self_ns_[static_cast<std::size_t>(l)]; }
  std::int64_t total_self_ns() const {
    std::int64_t s = 0;
    for (const auto v : self_ns_) s += v;
    return s;
  }
  const std::vector<Span>& log() const { return log_; }

  /// Writes the kept spans as JSON lines (name, start/end relative to the
  /// first span, parent index, batch id).
  bool dump(const std::string& path) const;

 private:
  struct Frame {
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t log_index;
    Layer layer;
  };
  std::size_t log_cap_;
  std::vector<Span> log_;
  std::vector<Frame> stack_;
  std::array<std::int64_t, kLayers> self_ns_{};
  std::uint32_t batch_ = 0;
};

/// The untraced twin of Tracer: same call sites, compiled to nothing, so the
/// traced and untraced compositions run identical code around the calls.
struct NoTracer {
  void begin(Layer) {}
  std::int64_t end() { return 0; }
  void set_batch(std::uint32_t) {}
  std::uint32_t batch() const { return 0; }
};

/// Allocation count so far (the counting operator new lives in main.cpp).
std::size_t alloc_count();

// --- workloads --------------------------------------------------------------

bool is_serve_workload(const std::string& name);
void run_serve(const Options& opt, Report& rep);
void run_train_deploy(const Options& opt, Report& rep);

}  // namespace perfbench
