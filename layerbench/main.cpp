// layerbench — the repository's benchmark program.  One process runs one
// workload on one thread, in a closed loop with one op in flight, and
// prints its metrics as the last line of stdout.  See README.md.
//
//   layerbench --workload W --seed N --seconds S --trace 0|1
//              [--scratch DIR] [--list-ops N] [--fail-op K]
//
// --trace 0 reports the end-to-end metrics.  --trace 1 is the separate
// traced run: the same seed and op list, with every other pass recorded
// as spans around the library calls (and the library's prof counters
// read), reporting per-layer metrics.  --list-ops prints the first N ops
// of the seeded op list and exits; --fail-op makes op K throw inside the
// timed region, to show that a failing op is counted and not fatal.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "bench.hpp"
#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace layerbench {
namespace {

constexpr int kMinOps = 100;   // at least 10 samples beyond p90
constexpr int kSetups = 5;     // setup_s is the median of these
constexpr int kQuietShare = 3;  // timing uses the quietest 1/3 of passes

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string scratch = ".";
  long long list_ops = -1;
  long long fail_op = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "layerbench: %s\nusage: layerbench --workload W --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--list-ops N] "
               "[--fail-op K]\n",
               why.c_str());
  std::exit(2);
}

long long to_int(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || x < 0) usage("bad value for " + flag);
  return x;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage("missing value for " + f);
    const std::string v = argv[++i];
    if (f == "--workload") a.workload = v;
    else if (f == "--seed") a.seed = static_cast<std::uint64_t>(to_int(f, v));
    else if (f == "--seconds") a.seconds = static_cast<double>(to_int(f, v));
    else if (f == "--trace") a.traced = to_int(f, v) != 0;
    else if (f == "--scratch") a.scratch = v;
    else if (f == "--list-ops") a.list_ops = to_int(f, v);
    else if (f == "--fail-op") a.fail_op = to_int(f, v);
    else usage("unknown option " + f);
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Nearest-rank quantile of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Layer a span name belongs to: the part before ':'; the four capture
/// modules form one layer, as do collectives and the engine they drive.
std::string layer_of(const std::string& span) {
  const std::string l = span.substr(0, span.find(':'));
  if (l == "trace" || l == "tlog" || l == "report" || l == "insight")
    return "capture";
  return l;
}

/// Self times of a span forest: per span name and per layer, plus call
/// counts, split by the name of each span's root.
struct SelfTimes {
  std::map<std::string, std::map<std::string, double>> by_name;   // root -> name -> s
  std::map<std::string, std::map<std::string, double>> by_layer;  // root -> layer -> s
  std::map<std::string, std::map<std::string, long long>> calls;  // root -> name -> n
  std::map<std::string, double> root_total;                       // root -> s
};

SelfTimes self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  std::vector<int> root(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent < 0 ? static_cast<int>(i)
                           : root[static_cast<std::size_t>(s.parent)];
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start_ns, s.end_ns);
  }
  SelfTimes t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string& r = spans[static_cast<std::size_t>(root[i])].name;
    const double dur = seconds_between(s.start_ns, s.end_ns);
    const double self = std::max(0.0, dur - child[i]);
    t.by_name[r][s.name] += self;
    t.by_layer[r][layer_of(s.name)] += self;
    t.calls[r][s.name] += 1;
    if (s.parent < 0) t.root_total[r] += dur;
  }
  return t;
}

/// name -> (value, unit)
using Metric = std::pair<std::string, std::pair<double, const char*>>;

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m[i].first.c_str(), m[i].second.first, m[i].second.second);
  std::printf("}}\n");
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.scratch);
  if (!wl) usage("unknown workload " + args.workload);
  const int classes = wl->classes();

  if (args.list_ops >= 0) {
    long long n = 0;
    for (int pass = 0; n < args.list_ops; ++pass)
      for (const OpSpec& op : pass_specs(args.seed, pass, classes)) {
        if (n++ >= args.list_ops) break;
        std::printf("%d.%d class=%d %s\n", op.pass, op.index, op.cls,
                    wl->describe(op).c_str());
      }
    return 0;
  }

  SpanLog log;
  tarr::prof::Profiler setup_prof;
  tarr::prof::Profiler op_prof;

  // ---- set-up: the median of kSetups fresh set-ups, spread evenly over
  // the run so that one burst of load on the shared machine cannot hit
  // them all.  Each replaces the previous one; the ops that follow use it.
  std::vector<double> setup_s;
  auto fresh_setup = [&] {
    log.set_enabled(args.traced);
    tarr::prof::ScopedThreadProfiler ambient(args.traced ? &setup_prof : nullptr);
    const std::int64_t t0 = now_ns();
    {
      Scope s(log, "bench:setup");
      wl->setup(log);
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
    log.set_enabled(false);
  };
  fresh_setup();
  Outcome setup_quality;
  wl->setup_quality(setup_quality);

  // ---- closed loop over whole passes of the seeded op list.
  const int guard_passes = (kMinOps + classes - 1) / classes;
  // The timing metrics use the quietest passes, which must still hold
  // kMinOps ops; the traced run needs one pass of each kind.
  const int min_passes = args.traced ? 2 : kQuietShare * guard_passes;
  std::vector<std::vector<double>> pass_op_s;
  std::vector<double> op_s, traced_op_s;
  std::vector<double> latencies, cost_ratios = setup_quality.cost_ratios,
                                 improvements;
  std::map<std::string, double> counters;
  Calibration calib;
  double gen_s = 0.0;
  long long attempted = 0, failed = 0;
  bool correct = setup_quality.failure.empty();
  if (!correct)
    std::fprintf(stderr, "layerbench: set-up check failed: %s\n",
                 setup_quality.failure.c_str());
  const std::int64_t loop_start = now_ns();
  for (int pass = 0;; ++pass) {
    // In the traced run odd passes are traced and even passes are not, so
    // one process measures the tracing overhead on the same op mix.
    const bool traced_pass = args.traced && pass % 2 == 1;
    const std::vector<OpSpec> ops = pass_specs(args.seed, pass, classes);
    std::vector<Outcome> outs(ops.size());
    if (!traced_pass) pass_op_s.emplace_back();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Outcome& out = outs[i];
      std::int64_t t = now_ns();
      wl->generate(ops[i]);
      gen_s += seconds_between(t, now_ns());

      log.set_enabled(traced_pass);
      {
        tarr::prof::ScopedThreadProfiler ambient(traced_pass ? &op_prof : nullptr);
        Scope root(log, "bench:op");
        t = now_ns();
        try {
          if (attempted == args.fail_op)
            throw tarr::Error("op failure forced by --fail-op");
          wl->run(log, out);
        } catch (const std::exception& e) {
          out.fail(e.what());
        }
        const double dt = seconds_between(t, now_ns());
        (traced_pass ? traced_op_s : pass_op_s.back()).push_back(dt);
      }
      log.set_enabled(false);

      if (out.failure.empty()) {
        try {
          wl->check(out);
        } catch (const std::exception& e) {
          out.fail(std::string("check threw: ") + e.what());
        }
      }
      for (const double l : out.latencies)
        if (!std::isfinite(l) || l <= 0.0) out.fail("non-finite or non-positive latency");
      if (traced_pass && out.failure.empty()) wl->calibrate(calib);
      ++attempted;
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const Outcome& out = outs[i];
      if (!out.failure.empty()) {
        ++failed;
        std::fprintf(stderr, "layerbench: op %d.%d failed: %s\n", ops[i].pass,
                     ops[i].index, out.failure.c_str());
        continue;
      }
      for (const auto& [k, v] : out.counters) counters[k] += v;
      // The quality guards cover a fixed prefix of the op list, so they
      // are bit-identical for a seed however many ops a run fits.
      if (pass < guard_passes) {
        latencies.insert(latencies.end(), out.latencies.begin(), out.latencies.end());
        cost_ratios.insert(cost_ratios.end(), out.cost_ratios.begin(), out.cost_ratios.end());
        improvements.insert(improvements.end(), out.improvements.begin(),
                            out.improvements.end());
      }
    }
    const double elapsed = seconds_between(loop_start, now_ns());
    while (static_cast<int>(setup_s.size()) < kSetups &&
           elapsed >= args.seconds * static_cast<double>(setup_s.size()) / kSetups)
      fresh_setup();
    if (pass + 1 >= min_passes && elapsed >= args.seconds) break;
  }
  while (static_cast<int>(setup_s.size()) < kSetups) fresh_setup();

  // Timing metrics come from the quietest third of the untraced passes.
  // Every pass holds each grid class once, so pass totals compare like
  // with like: a slowdown of the program shows in every pass, while a
  // burst of load from another tenant of the machine hits only some.
  {
    std::vector<std::pair<double, std::size_t>> totals;
    for (std::size_t p = 0; p < pass_op_s.size(); ++p) {
      double sum = 0.0;
      for (const double t : pass_op_s[p]) sum += t;
      totals.emplace_back(sum, p);
    }
    std::sort(totals.begin(), totals.end());
    const std::size_t quiet = (totals.size() + kQuietShare - 1) / kQuietShare;
    for (std::size_t k = 0; k < quiet; ++k) {
      const auto& ts = pass_op_s[totals[k].second];
      op_s.insert(op_s.end(), ts.begin(), ts.end());
    }
  }
  correct = correct && failed == 0;
  std::fprintf(stderr,
               "layerbench: %s seed %llu: %lld ops in %zu passes, %zu timing "
               "samples, failed_op_share %.6g\n",
               wl->name(), static_cast<unsigned long long>(args.seed), attempted,
               pass_op_s.size(), op_s.size(), static_cast<double>(failed) / static_cast<double>(attempted));

  std::vector<Metric> m;
  if (!args.traced) {
    double total = 0.0;
    for (const double s : op_s) total += s;
    m = {
        {"setup_s", {quantile(setup_s, 0.5), "s"}},
        {"op_ms_p50", {quantile(op_s, 0.5) * 1e3, "ms"}},
        {"op_ms_p90", {quantile(op_s, 0.9) * 1e3, "ms"}},
        {"ops_per_s", {static_cast<double>(op_s.size()) / total, "1/s"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
        {"mapping_cost_ratio", {geomean(cost_ratios), "ratio"}},
        {"improvement_pct_mean", {mean(improvements), "%"}},
        {"sim_latency_geomean_us", {geomean(latencies), "us"}},
    };
    print_result(correct, attempted, failed, m);
    return 0;
  }

  // ---- traced run: per-layer report.
  const SelfTimes st = self_times(log.spans());
  auto layer = [&](const char* root, const std::string& l) {
    const auto r = st.by_layer.find(root);
    if (r == st.by_layer.end()) return 0.0;
    const auto it = r->second.find(l);
    return it == r->second.end() ? 0.0 : it->second;
  };
  auto named = [&](const char* root, const std::string& prefix, long long* n) {
    double s = 0.0;
    *n = 0;
    if (const auto r = st.by_name.find(root); r != st.by_name.end())
      for (const auto& [name, v] : r->second)
        if (name.rfind(prefix, 0) == 0) {
          s += v;
          *n += st.calls.at(root).at(name);
        }
    return s;
  };
  // Mean self milliseconds per call of the spans under `prefix`.
  auto per_call_ms = [&](const char* root, const std::string& prefix) {
    long long n = 0;
    const double s = named(root, prefix, &n);
    return n == 0 ? 0.0 : s * 1e3 / static_cast<double>(n);
  };
  auto per_call_ms_all = [&](const std::string& prefix) {
    long long n1 = 0, n2 = 0;
    const double s = named("bench:op", prefix, &n1) + named("bench:setup", prefix, &n2);
    return n1 + n2 == 0 ? 0.0 : s * 1e3 / static_cast<double>(n1 + n2);
  };

  const double ops_total = st.root_total.count("bench:op") ? st.root_total.at("bench:op") : 0.0;
  const double traced_ops = static_cast<double>(traced_op_s.size());
  std::map<std::string, double> op_self;
  for (const char* l : {"topology", "fault", "probe", "mapping", "core",
                        "collectives", "capture", "bench"})
    op_self[l] = layer("bench:op", l);
  // Sink work runs inside the engine calls; the calibration's matched
  // sink-free runs give the collectives' own share of those spans.
  if (calib.bare_s > 0.0) {
    const double in_engine = std::max(0.0, op_self["collectives"] - calib.bare_s);
    op_self["collectives"] -= in_engine;
    op_self["capture"] += in_engine;
  }
  auto share = [&](const std::string& l) { return ops_total > 0 ? op_self[l] / ops_total : 0.0; };
  auto counter = [&](const tarr::prof::Profile& p, const char* name, double per) {
    return per > 0 ? p.counter_total(name) / per : 0.0;
  };
  const tarr::prof::Profile setup_profile = setup_prof.snapshot();
  const tarr::prof::Profile op_profile = op_prof.snapshot();
  long long n = 0;
  const double mapping_ops_s = named("bench:op", "mapping:", &n);
  const double bgmh_s = named("bench:op", "mapping:bgmh", &n);
  std::vector<double> untraced_all;
  for (const auto& ts : pass_op_s) untraced_all.insert(untraced_all.end(), ts.begin(), ts.end());
  const double untraced_p50 = quantile(untraced_all, 0.5);

  std::map<std::string, double> full = {
      {"topology.gpc_build_ms", per_call_ms("bench:setup", "topology:gpc")},
      {"topology.extract_ms", per_call_ms("bench:setup", "topology:extract")},
      {"topology.distance_cells", counter(setup_profile, "distance.cells", kSetups)},
      {"topology.matrix_mb", counter(setup_profile, "distance.cells", kSetups) * 4.0 / (1 << 20)},
      {"fault.degrade_ms", per_call_ms("bench:op", "fault:degrade")},
      {"probe.congestion_ms", per_call_ms("bench:op", "probe:congestion")},
      {"probe.effective_ms", per_call_ms("bench:op", "probe:effective")},
      {"probe.measure_ms", per_call_ms("bench:op", "probe:measure")},
      {"probe.measurements", counters["probe.measurements"] / static_cast<double>(attempted - failed)},
      {"probe.resolved_share", counters["probe.resolved_share"] / static_cast<double>(attempted - failed)},
      {"mapping.map_ms", per_call_ms_all("mapping:")},
      {"mapping.scan_steps", counter(op_profile, "mapping.scan_steps", traced_ops)},
      {"mapping.tie_breaks", counter(op_profile, "mapping.tie_breaks", traced_ops)},
      {"mapping.placements", counter(op_profile, "mapping.placements", traced_ops)},
      {"mapping.bgmh_share", mapping_ops_s > 0 ? bgmh_s / mapping_ops_s : 0.0},
      {"core.reorder_ms", per_call_ms_all("core:")},
      {"collectives.run_ms", per_call_ms_all("collectives:")},
      {"simmpi.stages", counter(op_profile, "engine.stages", traced_ops)},
      {"simmpi.transfers_priced", counter(op_profile, "cost.transfers_priced", traced_ops)},
      {"simmpi.bytes_priced", counter(op_profile, "cost.bytes_priced", traced_ops)},
      {"trace.tracer_ratio", calib.bare_s > 0 ? calib.tracer_s / calib.bare_s : 0.0},
      {"tlog.capture_ratio", calib.bare_s > 0 ? calib.tlog_s / calib.bare_s : 0.0},
      {"report.record_ratio", calib.bare_s > 0 ? calib.recorder_s / calib.bare_s : 0.0},
      {"trace.timeline_json_ms", per_call_ms("bench:op", "trace:timeline_json")},
      {"trace.metrics_csv_ms", per_call_ms("bench:op", "trace:metrics_csv")},
      {"report.critical_path_ms", per_call_ms("bench:op", "report:critical_path")},
      {"insight.diagnose_ms", per_call_ms("bench:op", "insight:diagnose")},
      {"tlog.bytes_per_event",
       counters["tlog.events"] > 0 ? counters["tlog.bytes"] / counters["tlog.events"] : 0.0},
      {"bench.span_coverage", ops_total > 0 ? 1.0 - op_self["bench"] / ops_total : 0.0},
      {"bench.trace_overhead", quantile(traced_op_s, 0.5) / untraced_p50},
      {"bench.gen_ms", gen_s * 1e3 / static_cast<double>(attempted)},
  };
  for (const char* l : {"fault", "probe", "mapping", "core", "collectives", "capture"})
    full[std::string(l) + ".op_share"] = share(l);
  for (const char* s : {"trace:timeline_json", "trace:metrics_csv",
                        "report:critical_path", "insight:diagnose"}) {
    std::string key = s;
    key = key.substr(0, key.find(':')) + "." + key.substr(key.find(':') + 1) + "_share";
    long long calls = 0;
    full[key] = ops_total > 0 ? named("bench:op", s, &calls) / ops_total : 0.0;
  }
  {
    // Per-span self milliseconds per call, for the report only.
    for (const char* root : {"bench:setup", "bench:op"})
      if (const auto r = st.by_name.find(root); r != st.by_name.end())
        for (const auto& [name, v] : r->second)
          std::fprintf(stderr, "  %-12s %-28s calls %7lld  self %10.3f ms/call\n",
                       root, name.c_str(), st.calls.at(root).at(name),
                       v * 1e3 / static_cast<double>(st.calls.at(root).at(name)));
  }

  // A layer the workload must exercise that recorded no time is an error.
  for (const std::string& l : wl->layers()) {
    if (layer("bench:op", l) + layer("bench:setup", l) <= 0.0) {
      std::fprintf(stderr, "layerbench: ERROR: layer %s not exercised by %s\n",
                   l.c_str(), wl->name());
      correct = false;
    }
  }
  // The expected dominant layer (or '+'-joined group) against every other.
  {
    const std::string dom = wl->dominant_layer();
    std::set<std::string> group;
    for (std::size_t a = 0, b; a <= dom.size(); a = b + 1) {
      b = dom.find('+', a);
      if (b == std::string::npos) b = dom.size();
      group.insert(dom.substr(a, b - a));
    }
    double dom_share = 0.0, other_max = 0.0;
    std::string other;
    for (const auto& [l, s] : op_self) {
      if (group.count(l)) dom_share += share(l);
      else if (share(l) > other_max) { other_max = share(l); other = l; }
    }
    std::fprintf(stderr, "layerbench: dominant %s share %.3f (next: %s %.3f)%s\n",
                 dom.c_str(), dom_share, other.c_str(), other_max,
                 dom_share > other_max ? "" : "  <-- NOT DOMINANT");
  }
  for (const auto& [k, v] : full) std::fprintf(stderr, "  %-28s %.6g\n", k.c_str(), v);

  static const std::vector<std::pair<const char*, const char*>> kPerLayer = {
      {"topology.gpc_build_ms", "ms"}, {"topology.distance_cells", "count"},
      {"topology.matrix_mb", "MB"}, {"fault.op_share", "ratio"},
      {"probe.op_share", "ratio"}, {"probe.measurements", "count"},
      {"probe.resolved_share", "ratio"}, {"mapping.op_share", "ratio"},
      {"mapping.map_ms", "ms"}, {"mapping.bgmh_share", "ratio"},
      {"mapping.scan_steps", "count"}, {"mapping.tie_breaks", "count"},
      {"mapping.placements", "count"}, {"core.op_share", "ratio"},
      {"collectives.op_share", "ratio"}, {"collectives.run_ms", "ms"},
      {"simmpi.stages", "count"}, {"simmpi.transfers_priced", "count"},
      {"simmpi.bytes_priced", "B"}, {"capture.op_share", "ratio"},
      {"trace.tracer_ratio", "ratio"}, {"tlog.capture_ratio", "ratio"},
      {"report.record_ratio", "ratio"}, {"trace.timeline_json_share", "ratio"},
      {"trace.metrics_csv_share", "ratio"}, {"report.critical_path_share", "ratio"},
      {"insight.diagnose_share", "ratio"}, {"tlog.bytes_per_event", "B"},
      {"bench.span_coverage", "ratio"}, {"bench.trace_overhead", "ratio"},
      {"bench.gen_ms", "ms"},
  };
  for (const auto& [name, unit] : kPerLayer) m.push_back({name, {full.at(name), unit}});

  // The raw spans, written once the run is over.
  const std::string spans_path = args.scratch + "/spans-" + wl->name() + "-" +
                                 std::to_string(args.seed) + ".csv";
  if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
    std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
    const std::vector<Span>& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
      std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, spans[i].parent, spans[i].name.c_str(),
                   static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns));
    if (std::fclose(f) == 0)
      std::fprintf(stderr, "layerbench: %zu spans written to %s\n", spans.size(),
                   spans_path.c_str());
  }
  print_result(correct, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  return layerbench::run(layerbench::parse(argc, argv));
}
