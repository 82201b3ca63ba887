// Entry point of the iGuard serving/deployment benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// Prints a host/input stamp line, a detail line (named workload metrics
// with units), and, as the last line, the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exits 1 when any correctness check fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "harness/alloc_counter.hpp"  // the one TU that defines the counting operator new

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::size_t alloc_count() { return iguard::harness::alloc_count(); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

namespace {
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream o;
  o << std::setprecision(10) << v;
  return o.str();
}
}  // namespace

void Report::stamp_num(std::string key, double v) { stamp.emplace_back(std::move(key), num(v)); }
void Report::stamp_str(std::string key, const std::string& v) {
  stamp.emplace_back(std::move(key), "\"" + json_escape(v) + "\"");
}

const char* layer_name(Layer l) {
  static constexpr const char* kNames[kLayers] = {
      "source", "framer", "reader",   "gate",      "ring",     "dispatch", "pipeline",
      "controller", "features", "teacher", "forest", "whitelist", "pl", "engine"};
  return kNames[static_cast<std::size_t>(l)];
}

bool Tracer::dump(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = log_.empty() ? 0 : log_.front().start_ns;
  for (const Span& s : log_) {
    f << "{\"name\":\"" << layer_name(s.layer) << "\",\"start_ns\":" << s.start_ns - t0
      << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
      << ",\"batch\":" << s.batch << "}\n";
  }
  return static_cast<bool>(f);
}

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <serve_flowrich|serve_flood|serve_paced|"
               "train_deploy> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") opt.trace = std::strcmp(v, "0") != 0;
    else if (k == "--workdir") opt.workdir = v;
    else return usage(("unknown option " + k).c_str());
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (opt.workdir.empty()) return usage("--workdir is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  const bool serve = is_serve_workload(opt.workload);
  if (!serve && opt.workload != "train_deploy") return usage("unknown workload");

  Report rep;
  rep.stamp_str("workload", opt.workload);
  rep.stamp_num("seed", static_cast<double>(opt.seed));
  rep.stamp_num("trace", opt.trace ? 1 : 0);
  rep.stamp_num("nproc", std::thread::hardware_concurrency());
  rep.stamp_str("cpu_model", cpuinfo_field("model name"));
  rep.stamp_str("cpu_flags", cpuinfo_field("flags"));
  rep.stamp_str("compiler", PERFBENCH_COMPILER);
  rep.stamp_str("build_type", PERFBENCH_BUILD_TYPE);
  rep.stamp_num("alloc_counting", iguard::harness::alloc_counting_active() ? 1 : 0);

  try {
    if (serve) run_serve(opt, rep);
    else run_train_deploy(opt, rep);
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("exception: ") + e.what());
  }

  if (rep.attempted == 0) rep.errors.push_back("no operation was attempted");

  std::ostringstream stamp;
  stamp << "{\"stamp\": {";
  for (std::size_t i = 0; i < rep.stamp.size(); ++i) {
    stamp << (i ? ", " : "") << "\"" << rep.stamp[i].first << "\": " << rep.stamp[i].second;
  }
  stamp << "}}";
  std::cout << stamp.str() << "\n";

  const auto metric_obj = [](const std::vector<Metric>& ms) {
    std::ostringstream o;
    o << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << num(ms[i].value)
        << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    o << "}";
    return o.str();
  };
  std::cout << "{\"detail\": " << metric_obj(rep.detail) << "}\n";
  for (const auto& e : rep.errors) std::cout << "{\"check_failed\": \"" << json_escape(e) << "\"}\n";

  const bool correct = rep.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": " << metric_obj(rep.metrics)
            << "}" << std::endl;
  return correct ? 0 : 1;
}
