// train_deploy: from the benign training feature matrices to a deployable
// model (core::IGuard::fit plus the compiled FL and PL engines), then the
// fresh rules serve a held-out benign+attack mix through daemon::Daemon,
// which gives their per-packet F1. README.md defines every metric.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/iguard.hpp"
#include "features/flow_features.hpp"
#include "io/ingest.hpp"
#include "ml/autoencoder.hpp"
#include "serve.hpp"
#include "switchsim/flow_state.hpp"
#include "trafficgen/attacks.hpp"
#include "trafficgen/benign.hpp"

namespace perfbench {

namespace {

namespace core = iguard::core;
namespace features = iguard::features;
namespace io = iguard::io;
namespace ml = iguard::ml;
namespace rules = iguard::rules;
namespace switchsim = iguard::switchsim;
namespace traffic = iguard::traffic;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kTrainFlows = 3000;  // TestbedLab's benign training set
constexpr std::size_t kThresholdN = 32;  // the testbed's n and delta
constexpr double kDelta = 10.0;
constexpr std::uint64_t kTrainSeed = 2024;  // TestbedLab's default seed

core::IGuardConfig guard_config() {
  core::IGuardConfig g;
  g.teacher = {.ensemble_size = 3, .base = ml::testbed_autoencoder_config()};
  g.teacher.num_threads = kThreads;
  g.forest.num_threads = kThreads;
  return g;
}

bool same_rules(const core::VoteWhitelist& a, const core::VoteWhitelist& b) {
  if (a.tables.size() != b.tables.size() || a.tree_count != b.tree_count) return false;
  for (std::size_t t = 0; t < a.tables.size(); ++t) {
    if (a.tree_rules(t) != b.tree_rules(t)) return false;
  }
  return true;
}

struct Deployable {
  std::unique_ptr<core::IGuard> guard;
  core::CompiledVoteWhitelist fl, pl;

  switchsim::DeployedModel model() const {
    switchsim::DeployedModel dm;
    dm.fl_tables = &guard->whitelist();
    dm.fl_quantizer = &guard->quantizer();
    dm.pl_tables = &guard->pl_model().whitelist();
    dm.pl_quantizer = &guard->pl_model().quantizer();
    dm.fl_compiled = &fl;
    dm.pl_compiled = &pl;
    return dm;
  }
};

Deployable fit_and_compile(const ml::Matrix& fl, const ml::Matrix& pl, std::uint64_t seed) {
  Deployable d;
  ml::Rng rng(seed);
  d.guard = std::make_unique<core::IGuard>(guard_config());
  d.guard->fit(fl, pl, rng);
  d.fl = core::CompiledVoteWhitelist(d.guard->whitelist());
  d.pl = core::CompiledVoteWhitelist(d.guard->pl_model().whitelist());
  return d;
}

/// IGuard::fit's steps composed by hand with a span around each layer
/// (teacher, guided forest + distillation, quantizer + clip + per-tree
/// compile, PL model), then the engine compile. Same RNG order as fit(), so
/// the whitelist must equal the untraced fit's.
struct TracedFit {
  core::VoteWhitelist whitelist;
  double wall_s = 0.0;
};

TracedFit traced_fit(const traffic::Trace& train, std::uint64_t seed, Tracer& tr) {
  const core::IGuardConfig g = guard_config();
  const std::int64_t t0 = now_ns();
  tr.begin(Layer::kFeatures);
  const ml::Matrix fl = switchsim::extract_switch_features(train, kThresholdN, kDelta).x;
  const ml::Matrix pl = features::extract_packet_features(train).x;
  tr.end();
  ml::Rng rng(seed);
  core::AeEnsemble teacher;
  tr.begin(Layer::kTeacher);
  teacher.fit(fl, g.teacher, rng);
  tr.end();
  core::GuidedIsolationForest forest(g.forest);
  tr.begin(Layer::kForest);
  forest.fit(fl, teacher, rng);
  tr.end();
  tr.begin(Layer::kWhitelist);
  rules::Quantizer q(g.quantizer_bits);
  q.fit(fl);
  core::WhitelistConfig wcfg = g.whitelist;
  if (wcfg.clip.empty()) wcfg.clip = core::support_clip(fl, q, 0.0);
  TracedFit out;
  out.whitelist = core::compile_per_tree(forest, q, wcfg);
  tr.end();
  core::PlModel plm(g.pl);
  tr.begin(Layer::kPlModel);
  if (pl.rows() > 0) plm.fit(pl, rng);
  tr.end();
  tr.begin(Layer::kEngine);
  const core::CompiledVoteWhitelist fl_c(out.whitelist);
  const core::CompiledVoteWhitelist pl_c(plm.whitelist());
  tr.end();
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

}  // namespace

void run_train_deploy(const Options& opt, Report& rep) {
  // --- inputs ---------------------------------------------------------------
  // The training capture is drawn from a fixed seed, so every run fits the
  // same data (the fit's cost depends on it); the run's seed draws the
  // held-out traffic the fresh rules serve.
  ml::Rng train_rng(kTrainSeed);
  traffic::BenignConfig b;
  b.flows = kTrainFlows;
  const traffic::Trace train = traffic::benign_trace(b, train_rng);
  ml::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 0x7D);
  b.flows = 2000;
  std::vector<traffic::Trace> parts{traffic::benign_trace(b, rng)};
  traffic::AttackConfig a;
  a.flows = 600;
  for (const auto t : traffic::headline_attacks()) parts.push_back(traffic::attack_trace(t, a, rng));
  const traffic::Trace heldout = traffic::merge_traces(std::move(parts));
  const std::uint64_t fit_seed = kTrainSeed ^ 0x7E57ull;

  ServeInput in;
  const std::string stem = opt.workdir + "/train_deploy-" + std::to_string(opt.seed);
  in.csv_path = stem + "-" + std::to_string(::getpid()) + ".csv";
  in.spans_path = stem + ".spans.jsonl";
  {
    const std::string csv = io::trace_to_csv(heldout);
    std::ofstream f(in.csv_path, std::ios::binary);
    f << csv;
    if (!f.flush()) throw std::runtime_error("cannot write " + in.csv_path);
    in.records = heldout.size();
    in.bytes = csv.size();
  }
  rep.stamp_num("train.packets", static_cast<double>(train.size()));
  rep.stamp_num("train.flows", static_cast<double>(kTrainFlows));
  rep.stamp_num("trace.packets", static_cast<double>(in.records));
  rep.stamp_num("trace.bytes", static_cast<double>(in.bytes));
  rep.stamp_num("threads", static_cast<double>(kThreads));

  ServeSpec spec;
  spec.shards = 2;
  spec.pipeline.packet_threshold_n = kThresholdN;
  spec.pipeline.idle_timeout_delta = kDelta;

  // One deployment: the set-up (switch feature extraction on the training
  // trace) followed by the fit and the engine compile.
  std::vector<double> setup, train_s;
  ml::Matrix fl, pl;
  const auto extract = [&] {
    const double t0 = now_s();
    fl = switchsim::extract_switch_features(train, kThresholdN, kDelta).x;
    pl = features::extract_packet_features(train).x;
    setup.push_back(now_s() - t0);
  };

  if (!opt.trace) {
    // --- timed: extract + fit + compile, repeated; every fit must equal the
    //     first ---------------------------------------------------------------
    extract();
    Deployable first = fit_and_compile(fl, pl, fit_seed);  // warm-up and reference
    setup.clear();
    rep.check(reset_peak_rss(), "cannot reset VmHWM through /proc/self/clear_refs");
    const double start = now_s();
    Deployable last;
    while (train_s.size() < 3 || now_s() - start < 0.7 * opt.seconds) {
      extract();
      const double t0 = now_s();
      last = fit_and_compile(fl, pl, fit_seed);
      train_s.push_back(now_s() - t0);
      const bool same = same_rules(last.guard->whitelist(), first.guard->whitelist()) &&
                        same_rules(last.guard->pl_model().whitelist(),
                                   first.guard->pl_model().whitelist());
      ++rep.attempted;
      if (!same) ++rep.failed;
      rep.check(same, "two fits with the same seed produced different whitelists");
    }
    const std::size_t n_rules =
        last.guard->whitelist().total_rules() + last.guard->pl_model().whitelist().total_rules();
    rep.stamp_num("rules.total", static_cast<double>(n_rules));
    rep.stamp_num("rules.fl", static_cast<double>(last.guard->whitelist().total_rules()));

    // --- the fresh rules serve the held-out mix -------------------------------
    const ServeResult r = measure_serving(
        spec, in, [&] { return last.model(); }, 0.3 * opt.seconds, false, rep);
    rep.metric("serve_pps", r.pps, "records/s");
    double fit_total = 0.0;
    for (const double t : train_s) fit_total += t;
    rep.metric("latency_ms", fit_total / static_cast<double>(train_s.size()) * 1e3, "ms");
    rep.metric("f1", r.f1, "ratio");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", r.peak_rss_mb, "MB");
    rep.info("train_s", median(train_s), "s");
    rep.info("train_s_mean", fit_total / static_cast<double>(train_s.size()), "s");
    rep.info("train_s_q1", quantile(train_s, 0.25), "s");
    rep.info("train_s_q3", quantile(train_s, 0.75), "s");
    rep.info("train_fits", static_cast<double>(train_s.size()), "count");
    rep.info("train_f1", r.f1, "ratio");
  } else {
    // --- traced: training layers, then the serving layers ---------------------
    for (int i = 0; i < 3; ++i) extract();
    // Untraced and traced fits, interleaved with alternating order so that
    // an order effect cancels; per-fit means, so that wall and self times
    // cover the same fits.
    constexpr int kRounds = 4;
    std::vector<double> untraced_s, traced_s;
    Deployable ref;
    Tracer tr;
    for (int i = 0; i < kRounds; ++i) {
      const auto untraced = [&] {
        ref = {};
        const double u0 = now_s();
        ref = fit_and_compile(fl, pl, fit_seed);
        untraced_s.push_back(now_s() - u0 + median(setup));
      };
      if (i % 2 == 1) untraced();
      const TracedFit tf = traced_fit(train, fit_seed, tr);
      traced_s.push_back(tf.wall_s);
      if (i % 2 == 0) untraced();
      rep.check(same_rules(tf.whitelist, ref.guard->whitelist()),
                "traced training composition differs from IGuard::fit");
    }
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) sum += x;
      return sum / static_cast<double>(v.size());
    };
    const double untraced_fit_s = mean(untraced_s);
    const double fit_wall = mean(traced_s);
    const double fit_self = static_cast<double>(tr.total_self_ns()) * 1e-9 / kRounds;
    const auto self_s = [&](Layer l) {
      return static_cast<double>(tr.self_ns(l)) * 1e-9 / kRounds;
    };
    rep.info("teacher.fit_s", self_s(Layer::kTeacher), "s");
    rep.info("forest.fit_s", self_s(Layer::kForest), "s");
    rep.info("whitelist.compile_s", self_s(Layer::kWhitelist), "s");
    rep.info("pl.fit_s", self_s(Layer::kPlModel), "s");
    rep.metric("features.extract_s", self_s(Layer::kFeatures), "s");
    rep.metric("engine.compile_ms", self_s(Layer::kEngine) * 1e3, "ms");
    const std::size_t n_rules =
        ref.guard->whitelist().total_rules() + ref.guard->pl_model().whitelist().total_rules();
    rep.metric("whitelist.rules", static_cast<double>(n_rules), "count");
    ++rep.attempted;

    const TraceTotals t = measure_serving_traced(spec, in, ref.model(), 0.4 * opt.seconds, rep);
    const double wall = fit_wall + t.wall_s;
    const double untraced = untraced_fit_s + t.untraced_s;
    const double gap = (wall - fit_self - t.self_s) / wall;
    rep.metric("trace.closure_gap_frac", gap, "ratio");
    rep.check(gap <= kClosureTolerance, "trace.closure_gap_frac above its tolerance");
    rep.metric("trace.overhead_frac", (wall - untraced) / untraced, "ratio");
    rep.info("trace.fit_wall_s", fit_wall, "s");
    rep.info("trace.serve_wall_s", t.wall_s, "s");
  }
  std::remove(in.csv_path.c_str());
}

}  // namespace perfbench
