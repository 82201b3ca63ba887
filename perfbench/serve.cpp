// Serving measurements (end-to-end and traced) and the three serve_*
// workloads. README.md defines every metric reported here.
#include "serve.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>
#include <type_traits>

#include "core/whitelist.hpp"
#include "daemon/source.hpp"
#include "io/ingest.hpp"
#include "io/replay.hpp"
#include "io/spsc_ring.hpp"
#include "ml/rng.hpp"
#include "obs/metrics.hpp"
#include "rules/quantize.hpp"
#include "switchsim/flow_state.hpp"
#include "switchsim/replay.hpp"
#include "trafficgen/attacks.hpp"
#include "trafficgen/benign.hpp"

namespace perfbench {

namespace {

using iguard::traffic::Packet;
namespace core = iguard::core;
namespace daemon = iguard::daemon;
namespace io = iguard::io;
namespace ml = iguard::ml;
namespace obs = iguard::obs;
namespace rules = iguard::rules;
namespace switchsim = iguard::switchsim;
namespace traffic = iguard::traffic;

constexpr std::size_t kPaths = 5;  // red, brown, blue, orange, purple
constexpr const char* kPathNames[kPaths] = {"red", "brown", "blue", "orange", "purple"};

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

daemon::DaemonConfig daemon_config(const ServeSpec& spec, const ServeInput& in, int fd,
                                   obs::Registry* reg) {
  daemon::DaemonConfig cfg;
  if (fd >= 0) {
    cfg.source.kind = daemon::SourceConfig::Kind::kFd;
    cfg.source.fd = fd;
  } else {
    cfg.source.path = in.csv_path;
  }
  cfg.overload = spec.overload;
  cfg.pipeline = spec.pipeline;
  cfg.shards = spec.shards;
  cfg.metrics = reg;
  return cfg;
}

/// io::ingest_replay_sharded over the same bytes and config: what every
/// Daemon pass must reproduce exactly (labels off, per-shard merge).
struct Reference {
  switchsim::SimStats sim;
  io::OverloadStats gate;
  std::string audit;
};

Reference reference_run(const ServeSpec& spec, const ServeInput& in,
                        const switchsim::DeployedModel& dm) {
  const std::string bytes = read_file(in.csv_path);
  io::IngestReplayConfig icfg;
  icfg.overload = spec.overload;
  switchsim::PipelineConfig pc = spec.pipeline;
  pc.record_labels = false;
  switchsim::ReplayConfig rc;
  rc.shards = spec.shards;
  rc.num_threads = 1;
  const auto r = io::ingest_replay_sharded(bytes, icfg, pc, dm, rc);
  return {r.replay.stats, r.overload, io::audit_ingest_conservation(r)};
}

/// Closes the descriptor it holds when destroyed, or earlier on reset().
class OwnedFd {
 public:
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  int get() const { return fd_; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

/// Records offered that ended as neither a verdict nor a gate shed.
std::uint64_t lost_records(const daemon::DaemonStats& s) {
  const std::uint64_t done = s.sim.packets + s.gate.shed;
  return s.ingest.offered > done ? s.ingest.offered - done : 0;
}

void check_pass(const daemon::DaemonStats& s, const Reference& ref, Report& rep,
                const char* what) {
  const std::string audit = daemon::audit_daemon_conservation(s);
  rep.check(audit.empty(), std::string(what) + ": audit_daemon_conservation: " + audit);
  rep.check(s.ingest.quarantined == 0, std::string(what) + ": valid records quarantined");
  rep.check(s.sim == ref.sim,
            std::string(what) + ": merged SimStats differ from ingest_replay_sharded");
  rep.check(s.gate == ref.gate,
            std::string(what) + ": gate stats differ from ingest_replay_sharded");
  rep.attempted += s.ingest.offered;
  rep.failed += lost_records(s);
}

// --- paced (open-loop) serving ----------------------------------------------

/// Latency histogram with 0.1 us bins up to 50 ms plus one overflow bin,
/// allocated up front so that recording a sample allocates nothing and the
/// samples stay out of peak_rss_mb.
class UsHistogram {
 public:
  UsHistogram() : bins_(kBins + 1, 0) {}
  void add(double us) {
    const double b = us / kBinUs;
    ++bins_[b <= 0.0 ? 0 : std::min(static_cast<std::size_t>(b), kBins)];
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  /// Midpoint of the bin that holds the q-quantile sample.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      seen += bins_[i];
      if (seen > rank) return (static_cast<double>(i) + 0.5) * kBinUs;
    }
    return static_cast<double>(kBins) * kBinUs;
  }

 private:
  static constexpr double kBinUs = 0.1;
  static constexpr std::size_t kBins = 500000;
  std::vector<std::uint32_t> bins_;
  std::uint64_t count_ = 0;
};

struct PacedPass {
  double ctor_s = 0.0;             // daemon::Daemon construction
  std::vector<double> depth;       // pushed - popped samples
  double serve_s = 0.0;  // first due time -> last packet popped
  daemon::DaemonStats stats;
};

bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// One paced pass: a writer thread feeds the CSV into a pipe on a fixed
/// wall-clock schedule, the daemon serves it through an fd source, and a
/// monitor polls the public daemon.popped counter with short sleeps.
/// Per-packet latency (due time -> popped) and writer lag (due time ->
/// written) are added to the two histograms.
PacedPass paced_pass(const ServeSpec& spec, const ServeInput& in, const std::string& csv,
                     const std::vector<std::size_t>& record_end,
                     const switchsim::DeployedModel& dm, UsHistogram& latency_us,
                     UsHistogram& lag_us) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  OwnedFd read_end(fds[0]), write_end(fds[1]);
  PacedPass out;
  obs::Registry reg;
  {
    const double c0 = now_s();
    daemon::Daemon d(daemon_config(spec, in, read_end.get(), &reg), dm);
    out.ctor_s = now_s() - c0;
    const obs::Counter popped = reg.counter("daemon.popped");
    const obs::Counter pushed = reg.counter("daemon.pushed");
    const std::size_t n = record_end.size() - 1;  // record_end[0] = header end
    const double rate = spec.paced_rate_pps;
    const double t0 = now_s() + 0.002;
    std::atomic<bool> done{false};
    bool write_ok = true;
    struct Chunk {
      std::size_t first;
      double written_s;
    };
    std::vector<Chunk> chunks;
    chunks.reserve(n / 8 + 16);
    std::thread writer([&] {
      write_ok = write_all(write_end.get(), csv.data(), record_end[0]);
      std::size_t next = 0;
      while (write_ok && next < n) {
        const double now = now_s();
        const std::size_t due =
            now < t0 ? 0 : std::min(n, static_cast<std::size_t>((now - t0) * rate) + 1);
        if (due > next) {
          write_ok = write_all(write_end.get(), csv.data() + record_end[next],
                               record_end[due] - record_end[next]);
          chunks.push_back({next, now_s()});
          next = due;
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      }
      write_end.reset();  // EOF ends the daemon's fd source
    });
    struct Poll {
      double t;
      std::uint64_t popped;
    };
    std::vector<Poll> polls;
    polls.reserve(1 << 16);
    std::thread monitor([&] {
      std::uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t pu = pushed.value();
        const std::uint64_t po = popped.value();
        const double t = now_s();
        if (po > last) {
          polls.push_back({t, po});
          last = po;
        }
        out.depth.push_back(pu > po ? static_cast<double>(pu - po) : 0.0);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      const std::uint64_t po = popped.value();
      if (po > last) polls.push_back({now_s(), po});
    });
    d.run();
    done.store(true, std::memory_order_release);
    monitor.join();
    writer.join();
    out.stats = d.stats();
    if (!write_ok) out.stats.container_error = "paced writer failed";

    std::size_t i = 0;
    for (const Poll& p : polls) {
      for (; i < p.popped && i < n; ++i) {
        latency_us.add((p.t - (t0 + static_cast<double>(i) / rate)) * 1e6);
      }
    }
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const std::size_t end = c + 1 < chunks.size() ? chunks[c + 1].first : n;
      for (std::size_t r = chunks[c].first; r < end; ++r) {
        lag_us.add((chunks[c].written_s - (t0 + static_cast<double>(r) / rate)) * 1e6);
      }
    }
    const double t_end = polls.empty() ? t0 : polls.back().t;
    out.serve_s = t_end - t0;
  }
  return out;
}

std::vector<std::size_t> record_ends(const std::string& csv) {
  std::vector<std::size_t> ends;
  for (std::size_t i = 0; i < csv.size(); ++i) {
    if (csv[i] == '\n') ends.push_back(i + 1);
  }
  return ends;
}

// --- the composed stage calls (traced and untraced) -------------------------

struct Composed {
  double wall_s = 0.0;
  io::IngestStats ingest;
  io::OverloadStats gate;
  std::uint64_t reads = 0, bytes = 0, batches = 0, pushes = 0, pops = 0;
  std::vector<switchsim::SimStats> shard;
  switchsim::SimStats merged;
  std::array<std::int64_t, kPaths> path_ns{};
  std::array<std::uint64_t, kPaths> path_n{};
  std::uint64_t digests = 0, installs = 0, evictions = 0;
  double flow_occupancy = 0.0, blacklist_occupancy = 0.0;
};

/// The public calls Daemon::run_synchronous makes, composed by hand:
/// source read -> framer feed/take_batch -> TraceReader::read_buffer ->
/// OverloadGate::offer -> SpscRing push (inline drain when full) ->
/// pop -> shard_of -> Pipeline::process, then the end-of-stream epilogue.
/// Daemon bookkeeping (alerts, quarantine copies, counters) is left out: it
/// is what daemon.unattributed_frac measures.
template <class Tr>
Composed compose(const ServeSpec& spec, const ServeInput& in, const switchsim::DeployedModel& dm,
                 obs::Registry* reg, Tr& tr) {
  constexpr bool kTraced = std::is_same_v<Tr, Tracer>;
  const daemon::DaemonConfig dc = daemon_config(spec, in, -1, reg);
  daemon::FileTail file;
  const OwnedFd fd(spec.fd_source() ? ::open(in.csv_path.c_str(), O_RDONLY) : -1);
  daemon::FdSource fdsrc;
  if (spec.fd_source()) {
    if (fd.get() < 0) throw std::runtime_error("cannot open " + in.csv_path);
    fdsrc = daemon::FdSource(fd.get());
  } else if (!file.open(in.csv_path)) {
    throw std::runtime_error("cannot open " + in.csv_path);
  }
  daemon::RecordFramer framer(dc.reader.limits.max_record_bytes);
  io::TraceReaderConfig rcfg = dc.reader;
  rcfg.metrics = reg;
  rcfg.metrics_prefix = dc.metrics_prefix + ".ingest";
  const io::TraceReader reader(rcfg);
  io::OverloadGate gate(dc.overload);
  io::SpscRing<Packet> ring(dc.ring_capacity);
  std::vector<std::unique_ptr<switchsim::Pipeline>> pipes;
  Composed c;
  c.shard.resize(dc.shards);
  for (std::size_t k = 0; k < dc.shards; ++k) {
    switchsim::PipelineConfig pc = dc.pipeline;
    pc.record_labels = false;
    pc.metrics = reg;
    pc.metrics_prefix = dc.metrics_prefix + ".shard" + std::to_string(k);
    pipes.push_back(std::make_unique<switchsim::Pipeline>(pc, dm));
  }
  std::string io_buf, batch_buf;
  io_buf.reserve(dc.source.chunk_bytes);
  std::vector<Packet> admit;
  admit.reserve(dc.overload.queue_capacity + 1024);
  std::vector<Packet> popped;
  popped.reserve(256);
  std::vector<std::uint32_t> shard_ids(256);
  double producer_ts = 0.0;

  auto drain = [&](std::size_t max) {
    std::size_t done = 0;
    while (done < max) {
      tr.begin(Layer::kRing);
      popped.clear();
      Packet p;
      const std::size_t want = std::min<std::size_t>(max - done, 256);
      while (popped.size() < want && ring.try_pop(p)) popped.push_back(p);
      tr.end();
      if (popped.empty()) break;
      c.pops += popped.size();
      tr.begin(Layer::kDispatch);
      for (std::size_t i = 0; i < popped.size(); ++i) {
        shard_ids[i] = dc.shards == 1
                           ? 0
                           : static_cast<std::uint32_t>(
                                 switchsim::shard_of(popped[i].ft, dc.shards, dc.shard_seed));
      }
      tr.end();
      for (std::size_t i = 0; i < popped.size(); ++i) {
        auto& st = c.shard[shard_ids[i]];
        if constexpr (kTraced) {
          const auto before = st.path_count;
          tr.begin(Layer::kPipeline);
          pipes[shard_ids[i]]->process(popped[i], st);
          const std::int64_t self = tr.end();
          for (std::size_t q = 0; q < kPaths; ++q) {
            if (st.path_count[q] != before[q]) {
              c.path_ns[q] += self;
              ++c.path_n[q];
              break;
            }
          }
        } else {
          pipes[shard_ids[i]]->process(popped[i], st);
        }
      }
      done += popped.size();
    }
    return done;
  };
  auto push_admitted = [&] {
    tr.begin(Layer::kRing);
    for (const Packet& p : admit) {
      while (!ring.try_push(p)) drain(ring.capacity() / 2);
      ++c.pushes;
    }
    tr.end();
    admit.clear();
  };
  auto ingest = [&](const std::string& bytes) {
    tr.set_batch(tr.batch() + 1);
    ++c.batches;
    tr.begin(Layer::kReader);
    const io::IngestResult r = reader.read_buffer(bytes);
    tr.end();
    c.ingest.offered += r.stats.offered;
    c.ingest.accepted += r.stats.accepted;
    c.ingest.quarantined += r.stats.quarantined;
    c.ingest.timestamps_clamped += r.stats.timestamps_clamped;
    for (std::size_t i = 0; i < io::kIngestCategories; ++i) {
      c.ingest.by_category[i] += r.stats.by_category[i];
    }
    tr.begin(Layer::kGate);
    for (const Packet& p : r.trace.packets) {
      Packet q = p;
      if (q.ts < producer_ts) q.ts = producer_ts;
      else producer_ts = q.ts;
      gate.offer(q, admit);
    }
    tr.end();
    push_admitted();
  };

  const std::int64_t t0 = now_ns();
  for (;;) {
    tr.begin(Layer::kSource);
    const std::size_t n = spec.fd_source() ? fdsrc.read_some(io_buf, dc.source.chunk_bytes)
                                         : file.read_some(io_buf, dc.source.chunk_bytes);
    tr.end();
    ++c.reads;
    c.bytes += n;
    if (n > 0) {
      tr.begin(Layer::kFramer);
      framer.feed(io_buf);
      tr.end();
      io_buf.clear();
      for (;;) {
        tr.begin(Layer::kFramer);
        const std::size_t k = framer.take_batch(batch_buf, dc.max_batch_records);
        tr.end();
        if (k == 0) break;
        ingest(batch_buf);
      }
    } else if (!spec.fd_source() || fdsrc.eof()) {
      tr.begin(Layer::kFramer);
      const std::size_t tail = framer.take_tail(batch_buf);
      tr.end();
      if (tail > 0) ingest(batch_buf);
      break;
    }
    drain(std::numeric_limits<std::size_t>::max());
  }
  tr.begin(Layer::kGate);
  gate.flush(admit);
  tr.end();
  push_admitted();
  drain(std::numeric_limits<std::size_t>::max());
  tr.begin(Layer::kController);
  for (std::size_t k = 0; k < dc.shards; ++k) pipes[k]->finish_stream(c.shard[k]);
  tr.end();
  c.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

  c.gate = gate.stats();
  c.merged = switchsim::merge_stats(c.shard);
  std::size_t occupied = 0, slots = 0, bl = 0, bl_cap = 0;
  for (const auto& p : pipes) {
    c.digests += p->controller().digests_received();
    c.installs += p->controller().rules_installed();
    c.evictions += p->blacklist().evictions();
    occupied += p->flow_store().occupied();
    slots += 2 * p->flow_store().slots_per_table();
    bl += p->blacklist().size();
    bl_cap += p->blacklist().capacity();
  }
  c.flow_occupancy = static_cast<double>(occupied) / static_cast<double>(slots);
  c.blacklist_occupancy = static_cast<double>(bl) / static_cast<double>(bl_cap);
  return c;
}

void check_composed(const Composed& c, const Reference& ref, Report& rep, const char* what) {
  rep.check(c.merged == ref.sim,
            std::string(what) + ": composed SimStats differ from ingest_replay_sharded");
  rep.check(c.gate == ref.gate,
            std::string(what) + ": composed gate stats differ from ingest_replay_sharded");
  rep.check(c.ingest.offered == c.ingest.accepted + c.ingest.quarantined &&
                c.pushes == c.gate.admitted && c.pops == c.pushes &&
                c.merged.packets == c.pops,
            std::string(what) + ": composed stages do not conserve packets");
}

/// Per-packet F1 of the served verdicts against ground truth.
double f1_of(const switchsim::SimStats& s) {
  const double denom = 2.0 * static_cast<double>(s.tp) + static_cast<double>(s.fp + s.fn);
  return denom > 0.0 ? 2.0 * static_cast<double>(s.tp) / denom : 0.0;
}

/// rules.* microbench over the PL keys of (up to 200 000) served packets.
void measure_rules(const ServeInput& in, const switchsim::DeployedModel& dm, Report& rep) {
  const io::IngestResult r = io::TraceReader().read_buffer(read_file(in.csv_path));
  const std::size_t n = std::min<std::size_t>(r.trace.size(), 200000);
  std::vector<double> rows(n * 4);
  for (std::size_t i = 0; i < n; ++i) {
    const Packet& p = r.trace.packets[i];
    rows[i * 4 + 0] = p.ft.dst_port;
    rows[i * 4 + 1] = p.ft.proto;
    rows[i * 4 + 2] = p.length;
    rows[i * 4 + 3] = p.ttl;
  }
  std::vector<std::uint32_t> keys(n * 4);
  std::vector<double> q_ns, c_ns;
  std::uint64_t sink = 0;
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      dm.pl_quantizer->quantize_into({rows.data() + i * 4, 4}, {keys.data() + i * 4, 4});
    }
    q_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
    t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      sink += static_cast<std::uint64_t>(dm.pl_compiled->classify({keys.data() + i * 4, 4}));
    }
    c_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  rep.metric("rules.quantize_ns", median(q_ns), "ns");
  rep.metric("rules.pl_classify_ns", median(c_ns), "ns");
  rep.info("rules.pl_malicious_keys", static_cast<double>(sink) / 3.0, "count");
}

}  // namespace

ServeResult measure_serving(const ServeSpec& spec, const ServeInput& in, const DeployFn& deploy,
                            double seconds, bool reset_rss, Report& rep) {
  const bool paced = spec.paced_rate_pps > 0.0;
  std::string csv;
  std::vector<std::size_t> ends;
  if (paced) {
    csv = read_file(in.csv_path);
    ends = record_ends(csv);
  }

  // Pass stats are checked against the reference after the timed phase, so
  // the reference replay's memory stays out of peak_rss_mb.
  std::vector<double> pps, pass_ms, setup_s;
  switchsim::DeployedModel dm;
  // Paced only: allocated before the peak-RSS reset, so they stay out of it.
  std::optional<UsHistogram> latency_us, lag_us, warm_latency_us, warm_lag_us;
  if (paced) {
    latency_us.emplace();
    lag_us.emplace();
    warm_latency_us.emplace();
    warm_lag_us.emplace();
  }
  double records = 0.0, serve_s = 0.0;  // timed totals
  std::vector<daemon::DaemonStats> served;
  // Every pass deploys afresh, so set-up is sampled across the whole run
  // like the serving itself: deploy() plus the daemon's construction.
  auto one_pass = [&](bool timed) {
    const double d0 = now_s();
    dm = deploy();
    const double deploy_s = now_s() - d0;
    if (paced) {
      PacedPass p = paced_pass(spec, in, csv, ends, dm, timed ? *latency_us : *warm_latency_us,
                               timed ? *lag_us : *warm_lag_us);
      if (timed) {
        setup_s.push_back(deploy_s + p.ctor_s);
        records += static_cast<double>(p.stats.ingest.offered);
        serve_s += p.serve_s;
        pps.push_back(static_cast<double>(p.stats.ingest.offered) / p.serve_s);
      }
      served.push_back(std::move(p.stats));
      return;
    }
    obs::Registry reg;
    const double c0 = now_s();
    daemon::Daemon d(daemon_config(spec, in, -1, &reg), dm);
    const double t0 = now_s();
    d.run_synchronous();
    const double wall = now_s() - t0;
    served.push_back(d.stats());
    if (timed) {
      setup_s.push_back(deploy_s + (t0 - c0));
      records += static_cast<double>(served.back().ingest.offered);
      serve_s += wall;
      pps.push_back(static_cast<double>(served.back().ingest.offered) / wall);
      pass_ms.push_back(wall * 1e3);
    }
  };

  // Warm-up: the first Daemon::run in a process is measurably slower.
  one_pass(false);
  if (reset_rss) rep.check(reset_peak_rss(), "cannot reset VmHWM through /proc/self/clear_refs");
  const double start = now_s();
  std::size_t passes = 0;
  while (passes < 3 || now_s() - start < seconds) {
    one_pass(true);
    ++passes;
  }
  ServeResult res;
  res.peak_rss_mb = peak_rss_mb();

  const Reference ref = reference_run(spec, in, dm);
  rep.check(ref.audit.empty(), "ingest_replay_sharded audit: " + ref.audit);
  const std::uint64_t warm_offered = served.front().ingest.offered;
  for (const auto& s : served) {
    check_pass(s, ref, rep, paced ? "paced pass" : "serve pass");
    rep.check(s.container_error.empty(), "serve pass: " + s.container_error);
  }
  rep.attempted -= warm_offered;  // the warm-up pass is checked, not counted
  const daemon::DaemonStats& last = served.back();
  // Aggregate rate over every timed pass: the host's speed drifts on a
  // scale of seconds, and a total averages those regimes where a per-pass
  // median would jump between them.
  res.pps = records / serve_s;
  res.setup_s = median(setup_s);
  res.f1 = f1_of(last.sim);
  if (paced) {
    res.latency_ms = latency_us->quantile(0.5) * 1e-3;
    rep.info("paced_p50_us", latency_us->quantile(0.5), "us");
    rep.info("paced_p99_us", latency_us->quantile(0.99), "us");
    rep.info("paced_samples", static_cast<double>(latency_us->count()), "count");
    rep.info("paced_rate_pps", spec.paced_rate_pps, "records/s");
    rep.info("gen.lag_p50_us", lag_us->quantile(0.5), "us");
    rep.info("gen.lag_p99_us", lag_us->quantile(0.99), "us");
  } else {
    res.latency_ms = serve_s / static_cast<double>(passes) * 1e3;  // mean pass time
    rep.info("pass_ms_p50", median(pass_ms), "ms");
    rep.info("pass_ms_p90", quantile(pass_ms, 0.9), "ms");
  }
  rep.info("serve_pps", res.pps, "records/s");
  rep.info("serve_pps_pass_p50", median(pps), "records/s");
  rep.info("serve_pps_q1", quantile(pps, 0.25), "records/s");
  rep.info("serve_pps_q3", quantile(pps, 0.75), "records/s");
  rep.info("passes", static_cast<double>(passes), "count");
  rep.info("fail_frac",
           rep.attempted ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                         : 0.0,
           "ratio");

  // Deterministic description of what was served (stamped, never compared
  // silently): the Fig. 4 path mix, sheds and confusion counts.
  for (std::size_t q = 0; q < kPaths; ++q) {
    rep.stamp_num(std::string("mix.") + kPathNames[q],
                  static_cast<double>(last.sim.path_count[q]));
  }
  rep.stamp_num("served.packets", static_cast<double>(last.sim.packets));
  rep.stamp_num("served.shed", static_cast<double>(last.gate.shed));
  rep.stamp_num("served.tp", static_cast<double>(last.sim.tp));
  rep.stamp_num("served.fp", static_cast<double>(last.sim.fp));
  rep.stamp_num("served.fn", static_cast<double>(last.sim.fn));
  rep.stamp_num("served.tn", static_cast<double>(last.sim.tn));
  return res;
}


TraceTotals measure_serving_traced(const ServeSpec& spec, const ServeInput& in,
                                   const switchsim::DeployedModel& dm, double seconds,
                                   Report& rep) {
  const Reference ref = reference_run(spec, in, dm);
  rep.check(ref.audit.empty(), "ingest_replay_sharded audit: " + ref.audit);
  {
    NoTracer warm;  // warm-up pass
    check_composed(compose(spec, in, dm, nullptr, warm), ref, rep, "warm-up composition");
  }
  std::vector<double> on_s, off_s, daemon_s, traced_s, allocs;
  Tracer tr;
  Composed traced;
  double traced_wall = 0.0, traced_self = 0.0;
  const double start = now_s();
  do {
    {
      obs::Registry reg;
      NoTracer nt;
      const Composed c = compose(spec, in, dm, &reg, nt);
      check_composed(c, ref, rep, "untraced composition");
      on_s.push_back(c.wall_s);
    }
    {
      NoTracer nt;
      off_s.push_back(compose(spec, in, dm, nullptr, nt).wall_s);
    }
    {
      obs::Registry reg;
      const OwnedFd fd(spec.fd_source() ? ::open(in.csv_path.c_str(), O_RDONLY) : -1);
      daemon::Daemon d(daemon_config(spec, in, fd.get(), &reg), dm);
      const std::size_t a0 = alloc_count();
      const double t0 = now_s();
      d.run_synchronous();
      daemon_s.push_back(now_s() - t0);
      const auto s = d.stats();
      allocs.push_back(static_cast<double>(alloc_count() - a0) /
                       static_cast<double>(std::max<std::uint64_t>(s.popped, 1)));
      check_pass(s, ref, rep, "run_synchronous");
    }
    {
      obs::Registry reg;
      const std::int64_t self0 = tr.total_self_ns();
      traced = compose(spec, in, dm, &reg, tr);
      check_composed(traced, ref, rep, "traced composition");
      const double self = static_cast<double>(tr.total_self_ns() - self0) * 1e-9;
      traced_s.push_back(traced.wall_s);
      traced_wall += traced.wall_s;
      traced_self += self;
    }
  } while (now_s() - start < seconds && on_s.size() < 5);
  const double rounds = static_cast<double>(traced_s.size());

  // Threaded run, sampled for ring depth (paced: the open-loop pipe feed).
  std::vector<double> depth;
  double threaded_pps = 0.0;
  if (spec.paced_rate_pps > 0.0) {
    const std::string csv = read_file(in.csv_path);
    UsHistogram latency_us, lag_us;
    PacedPass p = paced_pass(spec, in, csv, record_ends(csv), dm, latency_us, lag_us);
    check_pass(p.stats, ref, rep, "paced pass");
    depth = std::move(p.depth);
    threaded_pps = static_cast<double>(p.stats.ingest.offered) / p.serve_s;
  } else {
    obs::Registry reg;
    daemon::Daemon d(daemon_config(spec, in, -1, &reg), dm);
    const obs::Counter popped = reg.counter("daemon.popped");
    const obs::Counter pushed = reg.counter("daemon.pushed");
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t pu = pushed.value();
        const std::uint64_t po = popped.value();
        depth.push_back(pu > po ? static_cast<double>(pu - po) : 0.0);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    const double t0 = now_s();
    d.run();
    threaded_pps = static_cast<double>(d.stats().ingest.offered) / (now_s() - t0);
    done.store(true, std::memory_order_release);
    sampler.join();
    check_pass(d.stats(), ref, rep, "threaded run");
  }

  const double cap = static_cast<double>(io::ring_capacity_for(daemon::DaemonConfig{}.ring_capacity));
  std::size_t full = 0;
  for (const double v : depth) full += v >= cap ? 1 : 0;

  // Per-unit rates over every traced round (totals / totals).
  const Composed& c = traced;
  const auto per = [&](Layer l, double units) {
    return units > 0.0 ? static_cast<double>(tr.self_ns(l)) / (units * rounds) : 0.0;
  };
  const double offered = static_cast<double>(c.ingest.offered);
  const double packets = static_cast<double>(c.merged.packets);
  rep.metric("source.ns_per_kb", per(Layer::kSource, static_cast<double>(c.bytes) / 1024.0), "ns");
  rep.metric("source.reads", static_cast<double>(c.reads), "count");
  rep.metric("framer.ns_per_record", per(Layer::kFramer, offered), "ns");
  rep.metric("reader.ns_per_record", per(Layer::kReader, offered), "ns");
  rep.metric("reader.records_per_batch", offered / static_cast<double>(c.batches), "count");
  rep.metric("reader.quarantined", static_cast<double>(c.ingest.quarantined), "count");
  rep.metric("gate.ns_per_pkt", per(Layer::kGate, offered), "ns");
  rep.metric("gate.shed", static_cast<double>(c.gate.shed), "count");
  rep.metric("gate.queue_hwm", static_cast<double>(c.gate.queue_hwm), "count");
  rep.metric("ring.ns_per_op", per(Layer::kRing, static_cast<double>(c.pushes + c.pops)), "ns");
  rep.metric("ring.depth_p50", median(depth), "count");
  rep.metric("ring.depth_p99", quantile(depth, 0.99), "count");
  rep.metric("ring.full_frac",
             depth.empty() ? 0.0 : static_cast<double>(full) / static_cast<double>(depth.size()),
             "ratio");
  rep.metric("dispatch.ns_per_pkt", per(Layer::kDispatch, packets), "ns");
  double max_shard = 0.0;
  for (const auto& s : c.shard) max_shard = std::max(max_shard, static_cast<double>(s.packets));
  rep.metric("dispatch.skew", max_shard / (packets / static_cast<double>(c.shard.size())), "ratio");
  for (std::size_t q = 0; q < kPaths; ++q) {
    const double n = static_cast<double>(c.path_n[q]);  // last traced round
    rep.metric(std::string("pipeline.") + kPathNames[q] + ".ns_per_pkt",
               n > 0.0 ? static_cast<double>(c.path_ns[q]) / n : 0.0, "ns");
    rep.metric(std::string("pipeline.") + kPathNames[q] + ".share",
               static_cast<double>(c.merged.path_count[q]) / packets, "ratio");
  }
  rep.metric("controller.digests", static_cast<double>(c.digests), "count");
  rep.metric("controller.installs", static_cast<double>(c.installs), "count");
  rep.metric("controller.finish_ms", per(Layer::kController, 1.0) * 1e-6, "ms");
  rep.metric("pipeline.collisions", static_cast<double>(c.merged.collisions), "count");
  rep.metric("flow_store.occupancy", c.flow_occupancy, "ratio");
  rep.metric("blacklist.occupancy", c.blacklist_occupancy, "ratio");
  rep.metric("blacklist.evictions", static_cast<double>(c.evictions), "count");
  rep.metric("obs.ns_per_pkt", (median(on_s) - median(off_s)) * 1e9 / packets, "ns");
  rep.metric("daemon.unattributed_frac", (median(daemon_s) - median(on_s)) / median(daemon_s),
             "ratio");
  rep.metric("allocs_per_pkt", median(allocs), "count");
  rep.metric("daemon.threaded_pps", threaded_pps, "records/s");
  measure_rules(in, dm, rep);

  rep.info("trace.rounds", rounds, "count");
  rep.info("daemon.sync_s", median(daemon_s), "s");
  rep.info("compose.registry_on_s", median(on_s), "s");
  rep.info("compose.registry_off_s", median(off_s), "s");
  rep.info("compose.traced_s", median(traced_s), "s");
  rep.info("trace.spans_logged", static_cast<double>(tr.log().size()), "count");
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kFeatures); ++l) {
    rep.info(std::string("self_s.") + layer_name(static_cast<Layer>(l)),
             static_cast<double>(tr.self_ns(static_cast<Layer>(l))) * 1e-9 / rounds, "s");
  }
  if (!tr.dump(in.spans_path)) rep.check(false, "cannot write the span dump " + in.spans_path);
  return {traced_wall / rounds, traced_self / rounds, median(on_s)};
}

// --- the serve_* workloads ----------------------------------------------------

namespace {

/// Synthetic deployment (the shape bench_throughput uses): `tables` x
/// `rules_per_table` hypercubes around sampled benign feature rows on both
/// the FL and the PL whitelist. The uncompiled tables are the input; their
/// compilation is part of set-up.
struct SyntheticRules {
  rules::Quantizer fl_quant{16}, pl_quant{16};
  core::VoteWhitelist fl, pl;
};

core::VoteWhitelist make_whitelist(const ml::Matrix& features, const rules::Quantizer& quant,
                                   std::size_t tables, std::size_t rules_per_table,
                                   ml::Rng& rng) {
  core::VoteWhitelist wl;
  wl.tree_count = tables;
  const std::uint32_t dmax = quant.domain_max();
  const std::uint32_t halfwidth = dmax / 6;
  for (std::size_t t = 0; t < tables; ++t) {
    std::vector<rules::RangeRule> tree_rules;
    for (std::size_t r = 0; r < rules_per_table; ++r) {
      const auto row = features.row(rng.index(features.rows()));
      std::vector<rules::FieldRange> box(features.cols());
      for (std::size_t j = 0; j < box.size(); ++j) {
        const std::uint32_t q = quant.quantize_value(j, row[j]);
        box[j] = {q > halfwidth ? q - halfwidth : 0, q < dmax - halfwidth ? q + halfwidth : dmax};
      }
      tree_rules.push_back({std::move(box), 0, static_cast<int>(r)});
    }
    wl.tables.emplace_back(std::move(tree_rules));
  }
  return wl;
}

SyntheticRules synthetic_rules(const traffic::Trace& benign, std::size_t n, ml::Rng& rng,
                               double& extract_s) {
  SyntheticRules m;
  const double t0 = now_s();
  const auto features = switchsim::extract_switch_features(benign, n, 10.0);
  extract_s = now_s() - t0;
  constexpr std::size_t kTables = 5, kRules = 512;
  m.fl_quant.fit(features.x);
  m.fl = make_whitelist(features.x, m.fl_quant, kTables, kRules, rng);
  const std::size_t n_pl = std::min<std::size_t>(benign.size(), 4096);
  ml::Matrix pl(n_pl, 4);
  for (std::size_t i = 0; i < n_pl; ++i) {
    const auto& p = benign.packets[rng.index(benign.size())];
    pl(i, 0) = p.ft.dst_port;
    pl(i, 1) = p.ft.proto;
    pl(i, 2) = p.length;
    pl(i, 3) = p.ttl;
  }
  m.pl_quant.fit(pl);
  m.pl = make_whitelist(pl, m.pl_quant, kTables, kRules, rng);
  return m;
}

/// A serve workload: the served trace comes from the run's seed; the
/// deployed rules are fitted on a benign capture drawn from a fixed seed, so
/// every seed serves the same deployment and only the traffic varies.
struct Workload {
  ServeSpec spec;
  traffic::BenignConfig deploy_benign;
  traffic::Trace trace;
};
constexpr std::uint64_t kDeploySeed = 0xBE7CAull;

/// bench_throughput's botnet + scan mix, scaled `scale`x in flows and horizon.
Workload flowrich(double scale, ml::Rng& rng) {
  Workload w;
  traffic::BenignConfig b;
  b.flows = static_cast<std::size_t>(600 * scale);
  b.horizon = 600.0 * scale;
  traffic::AttackConfig a;
  a.flows = static_cast<std::size_t>(5000 * scale);
  a.horizon = 600.0 * scale;
  w.deploy_benign = b;
  std::vector<traffic::Trace> parts{traffic::benign_trace(b, rng)};
  for (const auto t : {traffic::AttackType::kMirai, traffic::AttackType::kAidra,
                       traffic::AttackType::kOsScan}) {
    parts.push_back(traffic::attack_trace(t, a, rng));
  }
  w.trace = traffic::merge_traces(std::move(parts));
  w.spec.pipeline.packet_threshold_n = 8;
  return w;
}

Workload make_workload(const std::string& name, ml::Rng& rng) {
  if (name == "serve_flowrich") {
    Workload w = flowrich(10.0, rng);
    w.spec.shards = 2;
    w.spec.pipeline.flow_slots = 65536;
    return w;
  }
  if (name == "serve_paced") {
    Workload w = flowrich(5.0, rng);
    w.spec.shards = 1;
    w.spec.pipeline.flow_slots = 65536;
    w.spec.paced_rate_pps = 500000.0;
    return w;
  }
  // serve_flood: benign traffic plus long-lived UDP and TCP floods.
  Workload w;
  traffic::BenignConfig b;
  b.flows = 2000;
  b.horizon = 7200.0;
  traffic::AttackConfig a;
  a.flows = 850;
  a.horizon = 7200.0;
  w.deploy_benign = b;
  std::vector<traffic::Trace> parts{traffic::benign_trace(b, rng)};
  parts.push_back(traffic::attack_trace(traffic::AttackType::kUdpDdos, a, rng));
  parts.push_back(traffic::attack_trace(traffic::AttackType::kTcpDdos, a, rng));
  w.trace = traffic::merge_traces(std::move(parts));
  w.spec.shards = 2;
  w.spec.pipeline.packet_threshold_n = 8;
  w.spec.overload.enabled = true;
  w.spec.overload.policy = io::ShedPolicy::kFlowHash;
  w.spec.overload.drain_rate_pps = 100.0;
  return w;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve_flowrich" || name == "serve_flood" || name == "serve_paced";
}

void run_serve(const Options& opt, Report& rep) {
  ml::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + opt.workload.size());
  Workload w = make_workload(opt.workload, rng);
  ServeInput in;
  const std::string stem = opt.workdir + "/" + opt.workload + "-" + std::to_string(opt.seed);
  in.csv_path = stem + "-" + std::to_string(::getpid()) + ".csv";
  in.spans_path = stem + ".spans.jsonl";
  {
    const std::string csv = io::trace_to_csv(w.trace);
    std::ofstream f(in.csv_path, std::ios::binary);
    f << csv;
    if (!f.flush()) throw std::runtime_error("cannot write " + in.csv_path);
    in.records = w.trace.size();
    in.bytes = csv.size();
  }
  w.trace = {};
  double extract_s = 0.0;
  ml::Rng deploy_rng(kDeploySeed);
  const SyntheticRules rules_in =
      synthetic_rules(traffic::benign_trace(w.deploy_benign, deploy_rng),
                      w.spec.pipeline.packet_threshold_n, deploy_rng, extract_s);
  rep.stamp_num("trace.packets", static_cast<double>(in.records));
  rep.stamp_num("trace.bytes", static_cast<double>(in.bytes));
  rep.stamp_num("rules.total", static_cast<double>(rules_in.fl.total_rules() + rules_in.pl.total_rules()));
  rep.stamp_num("shards", static_cast<double>(w.spec.shards));
  rep.stamp_num("flow_slots", static_cast<double>(w.spec.pipeline.flow_slots));

  // Deploying = compiling both whitelists (a control-plane operation); with
  // the daemon's construction it is the set-up before the first packet.
  core::CompiledVoteWhitelist fl_c, pl_c;
  const auto deploy = [&] {
    fl_c = core::CompiledVoteWhitelist(rules_in.fl);
    pl_c = core::CompiledVoteWhitelist(rules_in.pl);
    return switchsim::DeployedModel{&rules_in.fl, &rules_in.fl_quant, &rules_in.pl,
                                    &rules_in.pl_quant, &fl_c, &pl_c};
  };

  if (!opt.trace) {
    const ServeResult r = measure_serving(w.spec, in, deploy, opt.seconds, true, rep);
    rep.metric("serve_pps", r.pps, "records/s");
    rep.metric("latency_ms", r.latency_ms, "ms");
    rep.metric("f1", r.f1, "ratio");
    rep.metric("setup_s", r.setup_s, "s");
    rep.metric("peak_rss_mb", r.peak_rss_mb, "MB");
  } else {
    std::vector<double> compile_ms;
    switchsim::DeployedModel dm;
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      dm = deploy();
      compile_ms.push_back((now_s() - t0) * 1e3);
    }
    const TraceTotals t = measure_serving_traced(w.spec, in, dm, opt.seconds, rep);
    rep.metric("features.extract_s", extract_s, "s");
    rep.metric("engine.compile_ms", median(compile_ms), "ms");
    rep.metric("whitelist.rules",
               static_cast<double>(rules_in.fl.total_rules() + rules_in.pl.total_rules()),
               "count");
    const double gap = (t.wall_s - t.self_s) / t.wall_s;
    rep.metric("trace.closure_gap_frac", gap, "ratio");
    rep.check(gap <= kClosureTolerance, "trace.closure_gap_frac above its tolerance");
    rep.metric("trace.overhead_frac", (t.wall_s - t.untraced_s) / t.untraced_s, "ratio");
  }
  std::remove(in.csv_path.c_str());
}

}  // namespace perfbench
