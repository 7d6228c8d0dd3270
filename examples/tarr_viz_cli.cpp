// tarr-viz — dashboard front end over tarr::viz (see docs/OBSERVABILITY.md,
// "Dashboards").  Five subcommands, each emitting one self-contained HTML
// file (inline SVG/CSS, no scripts, no external assets), byte-identical
// across same-seed runs:
//
//   tarr-viz topo [run options] --out FILE
//       Topology load heatmaps: the fat-tree with per-cable / per-QPI
//       directed byte loads for the baseline layout and the reordered
//       mapping, plus the relieved/newly-loaded diff view.
//
//   tarr-viz matrix [run options] --out FILE
//       Communication-matrix heatmaps before/after the reordering, side by
//       side on one color scale.
//
//   tarr-viz timeline [run options] --out FILE
//       Timeline/critical-path views of both schedules.
//
//   tarr-viz trend SET... [--label NAME]... [--rel-tolerance P]
//       [--abs-tolerance V] --out FILE
//       Perf-trajectory charts over one or more snapshot sets (directories
//       of BENCH_*.json or single files), gated metrics flagged when
//       outside tolerance relative to the first set.
//
//   tarr-viz dashboard [run options] [--snapshots SET]... --out FILE
//       All of the above on one page.
//
// Run options match tarr-report: --nodes N, --procs P, --layout L,
// --pattern PAT, --mapper heuristic|scotch|greedy, --seed S, --msg BYTES.
// `--out -` (the default) writes to stdout; file outputs are probed for
// writability before any simulation runs.
//
// Schedule-view subcommands (topo/matrix/timeline/dashboard) can stream
// both recorded runs into `.tlog` traces (--save-tlog-baseline FILE,
// --save-tlog FILE — see docs/TLOG.md) and can rebuild them from such
// files instead of re-simulating (--from-tlog-baseline FILE, --from-tlog
// FILE, both required together): with the same run options as at capture
// time the page is byte-identical to the live render (CI cmp's it).

#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/cli.hpp"
#include "core/framework.hpp"
#include "report/record.hpp"
#include "report/snapshot.hpp"
#include "simmpi/layout.hpp"
#include "tlog/reader.hpp"
#include "tlog/writer.hpp"
#include "trace/tracer.hpp"
#include "viz/dashboard.hpp"
#include "viz/matrix.hpp"
#include "viz/timeline.hpp"
#include "viz/topo.hpp"
#include "viz/trend.hpp"

#include "run_options.hpp"

namespace {

using namespace tarr;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: tarr-viz topo|matrix|timeline [run options] --out FILE\n"
      "       tarr-viz trend SET... [--label NAME]... [--rel-tolerance P]\n"
      "               [--abs-tolerance V] --out FILE\n"
      "       tarr-viz dashboard [run options] [--snapshots SET]...\n"
      "               --out FILE\n"
      "run options: --nodes N --procs P --layout L --pattern PAT\n"
      "             --mapper heuristic|scotch|greedy --seed S --msg BYTES\n"
      "             --save-tlog-baseline F --save-tlog F\n"
      "             --from-tlog-baseline F --from-tlog F\n"
      "--out - writes to stdout (the default)\n");
  std::exit(2);
}

struct Options {
  int nodes = 8;
  int procs = 64;
  std::string layout = "cyclic-bunch";
  std::string pattern = "ring";
  std::string mapper = "heuristic";
  std::uint64_t seed = 1;
  long long msg_bytes = 16 * 1024;
  std::string out = "-";
  std::vector<std::string> sets;    ///< trend/dashboard snapshot sets
  std::vector<std::string> labels;  ///< trend set labels (parallel to sets)
  report::CompareOptions copts;
  std::string save_tlog_baseline;  ///< stream the baseline run to a .tlog
  std::string save_tlog;           ///< stream the reordered run to a .tlog
  std::string from_tlog_baseline;  ///< rebuild the baseline from a .tlog
  std::string from_tlog;           ///< rebuild the reordered run from a .tlog
};

Options parse_options(int argc, char** argv, bool positional_sets) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--nodes")
      o.nodes = cli::parse_nodes(a, next());
    else if (a == "--procs")
      o.procs = static_cast<int>(cli::parse_int(a, next(), 1, 1 << 26));
    else if (a == "--layout") o.layout = next();
    else if (a == "--pattern") o.pattern = next();
    else if (a == "--mapper") o.mapper = next();
    else if (a == "--seed") o.seed = cli::parse_seed(a, next());
    else if (a == "--msg")
      o.msg_bytes = cli::parse_int(a, next(), 1,
                                   std::numeric_limits<long long>::max());
    else if (a == "--out") o.out = next();
    else if (a == "--snapshots") o.sets.push_back(next());
    else if (a == "--label") o.labels.push_back(next());
    else if (a == "--rel-tolerance")
      o.copts.rel_tolerance =
          cli::parse_double(a, next(), 0.0, std::numeric_limits<double>::max());
    else if (a == "--abs-tolerance")
      o.copts.abs_tolerance =
          cli::parse_double(a, next(), 0.0, std::numeric_limits<double>::max());
    else if (a == "--save-tlog-baseline") o.save_tlog_baseline = next();
    else if (a == "--save-tlog") o.save_tlog = next();
    else if (a == "--from-tlog-baseline") o.from_tlog_baseline = next();
    else if (a == "--from-tlog") o.from_tlog = next();
    else if (positional_sets && a[0] != '-')
      o.sets.push_back(a);
    else throw cli::UsageError("unknown option " + a);
  }
  cli::check_run(o.nodes, o.procs, o.layout, o.pattern, o.mapper,
                 {"heuristic", "scotch", "greedy"});
  return o;
}

void run_collective(simmpi::Engine& eng, mapping::Pattern pattern,
                    const std::vector<Rank>& oldrank) {
  using collectives::AllgatherAlgo;
  using collectives::OrderFix;
  switch (pattern) {
    case mapping::Pattern::RecursiveDoubling:
      collectives::run_allgather(
          eng, {AllgatherAlgo::RecursiveDoubling, OrderFix::InitComm},
          oldrank);
      break;
    case mapping::Pattern::Ring:
      collectives::run_allgather(eng, {AllgatherAlgo::Ring, OrderFix::None},
                                 oldrank);
      break;
    case mapping::Pattern::Bruck:
      collectives::run_allgather(eng, {AllgatherAlgo::Bruck, OrderFix::None},
                                 oldrank);
      break;
    case mapping::Pattern::BinomialBcast:
      collectives::run_bcast(eng, collectives::TreeAlgo::Binomial);
      break;
    case mapping::Pattern::BinomialGather:
      collectives::run_gather(eng, collectives::TreeAlgo::Binomial,
                              OrderFix::InitComm, oldrank);
      break;
    default:
      throw Error("tarr-viz: pattern has no collective to run");
  }
}

/// `tlog_path`, when non-empty, streams the run into a `.tlog` alongside
/// the recorder.
report::ScheduleRecord record_run(const simmpi::Communicator& comm,
                                  mapping::Pattern pattern,
                                  const std::vector<Rank>& oldrank,
                                  long long msg_bytes,
                                  const std::string& tlog_path = {}) {
  report::ScheduleRecorder recorder;
  std::optional<tlog::TlogSink> tlog_sink;
  if (!tlog_path.empty()) tlog_sink.emplace(tlog_path);
  trace::TeeSink tee(&recorder, tlog_sink ? &*tlog_sink : nullptr);
  simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                     msg_bytes, comm.size());
  eng.set_trace_sink(&tee);
  run_collective(eng, pattern, oldrank);
  if (tlog_sink) tlog_sink->finish();
  return recorder.take();
}

core::ReorderedComm reorder(core::ReorderFramework& fw,
                            const simmpi::Communicator& comm,
                            mapping::Pattern pattern,
                            const std::string& mapper) {
  if (mapper == "heuristic") return fw.reorder(comm, pattern);
  if (mapper == "scotch")
    return fw.reorder_with(comm, *mapping::make_scotch_like_mapper(pattern));
  return fw.reorder_with(comm, *mapping::make_greedy_graph_mapper(pattern));
}

/// Baseline + reordered records of one configured run.
struct Runs {
  topology::Machine machine;
  report::ScheduleRecord baseline;
  report::ScheduleRecord candidate;
  std::string subtitle;
};

Runs run_pair(const Options& o) {
  const bool from_tlog = !o.from_tlog.empty() || !o.from_tlog_baseline.empty();
  if (from_tlog && (o.from_tlog.empty() || o.from_tlog_baseline.empty()))
    throw cli::UsageError(
        "--from-tlog and --from-tlog-baseline must be given together");
  if (from_tlog && (!o.save_tlog.empty() || !o.save_tlog_baseline.empty()))
    throw cli::UsageError("--from-tlog* and --save-tlog* are exclusive");

  topology::Machine machine = topology::Machine::gpc(o.nodes);
  const mapping::Pattern pattern = cli::parse_pattern(o.pattern);
  const simmpi::Communicator comm(
      machine,
      simmpi::make_layout(machine, o.procs, cli::parse_layout(o.layout)));
  // The subtitle is a pure function of the flags (and comm.size(), which the
  // flags determine), so live and --from-tlog renders print identical bytes.
  std::string subtitle =
      o.pattern + " over " + std::to_string(comm.size()) + " ranks on " +
      std::to_string(o.nodes) + " nodes, " + o.layout + " layout vs " +
      o.mapper + " mapping, " + std::to_string(o.msg_bytes) +
      " B blocks (seed " + std::to_string(o.seed) + ")";

  report::ScheduleRecord baseline, candidate;
  if (from_tlog) {
    baseline = tlog::read_record(o.from_tlog_baseline);
    candidate = tlog::read_record(o.from_tlog);
  } else {
    core::ReorderFramework::Options fopts;
    fopts.seed = o.seed;
    core::ReorderFramework fw(machine, fopts);
    const core::ReorderedComm rc = reorder(fw, comm, pattern, o.mapper);
    std::vector<Rank> identity(static_cast<std::size_t>(comm.size()));
    std::iota(identity.begin(), identity.end(), 0);
    // Records first: comm/rc reference `machine`, which moves into the
    // result only once nothing borrows it anymore.
    baseline =
        record_run(comm, pattern, identity, o.msg_bytes, o.save_tlog_baseline);
    candidate =
        record_run(rc.comm, pattern, rc.oldrank, o.msg_bytes, o.save_tlog);
  }
  return Runs{std::move(machine), std::move(baseline), std::move(candidate),
              std::move(subtitle)};
}

std::vector<viz::TrendSet> load_trend_sets(const Options& o) {
  std::vector<viz::TrendSet> sets;
  for (std::size_t i = 0; i < o.sets.size(); ++i) {
    viz::TrendSet set;
    set.label = i < o.labels.size() ? o.labels[i] : o.sets[i];
    set.snapshots = report::load_snapshot_set(o.sets[i]);
    sets.push_back(std::move(set));
  }
  return sets;
}

void write_out(const std::string& path, const std::string& html) {
  if (path == "-") {
    std::fwrite(html.data(), 1, html.size(), stdout);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw Error("tarr-viz: cannot write " + path);
  const bool ok = std::fwrite(html.data(), 1, html.size(), f) == html.size();
  if (std::fclose(f) != 0 || !ok)
    throw Error("tarr-viz: failed writing " + path);
}

/// A single-view page shares the dashboard chrome: title + one section.
void emit_page(const Options& o, const std::string& title,
               const std::string& subtitle, const std::string& section_title,
               const std::string& body) {
  viz::Page page(title);
  page.add_section(section_title, subtitle, body);
  write_out(o.out, page.html());
}

int cmd_topo(const Options& o) {
  const Runs r = run_pair(o);
  const viz::TopoHeatmap ha = viz::build_topo_heatmap(r.machine, r.baseline);
  const viz::TopoHeatmap hb = viz::build_topo_heatmap(r.machine, r.candidate);
  std::string body = viz::render_topo_heatmap(r.machine, ha, "baseline load");
  body += viz::render_topo_heatmap(r.machine, hb, "reordered load");
  body += viz::render_topo_diff(r.machine, ha, hb,
                                "load diff: reordered vs baseline");
  emit_page(o, "tarr topology load", r.subtitle, "Topology load", body);
  return 0;
}

int cmd_matrix(const Options& o) {
  const Runs r = run_pair(o);
  const viz::CommMatrix ma = viz::build_comm_matrix(r.baseline, r.machine);
  const viz::CommMatrix mb = viz::build_comm_matrix(r.candidate, r.machine);
  emit_page(o, "tarr communication matrix", r.subtitle,
            "Communication matrix",
            viz::render_comm_matrix_pair(ma, "baseline", mb, "reordered"));
  return 0;
}

int cmd_timeline(const Options& o) {
  const Runs r = run_pair(o);
  const auto pa = report::analyze_critical_path(r.baseline, r.machine);
  const auto pb = report::analyze_critical_path(r.candidate, r.machine);
  std::string body = viz::render_timeline(r.baseline, pa, "baseline schedule");
  body += viz::render_timeline(r.candidate, pb, "reordered schedule");
  emit_page(o, "tarr timeline", r.subtitle, "Timeline & critical path", body);
  return 0;
}

int cmd_trend(const Options& o) {
  if (o.sets.empty()) usage();
  emit_page(o, "tarr perf trajectory",
            std::to_string(o.sets.size()) + " snapshot set(s), " +
                viz::fmt_fixed(o.copts.rel_tolerance, 1) + "% gate tolerance",
            "Perf trajectory", viz::render_trend(load_trend_sets(o), o.copts));
  return 0;
}

int cmd_dashboard(const Options& o) {
  const Runs r = run_pair(o);
  viz::DashboardInputs in;
  in.title = "tarr dashboard";
  in.subtitle = r.subtitle;
  in.machine = &r.machine;
  in.baseline = &r.baseline;
  in.candidate = &r.candidate;
  in.candidate_label = "reordered";
  in.trend = load_trend_sets(o);
  in.trend_opts = o.copts;
  write_out(o.out, viz::render_dashboard(in));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  try {
    const std::string cmd = argv[1];
    const Options o = parse_options(argc, argv, cmd == "trend");
    // Fail fast on an unwritable output before any simulation runs.
    if (o.out != "-") trace::Tracer::ensure_writable(o.out);
    if (cmd == "topo") return cmd_topo(o);
    if (cmd == "matrix") return cmd_matrix(o);
    if (cmd == "timeline") return cmd_timeline(o);
    if (cmd == "trend") return cmd_trend(o);
    if (cmd == "dashboard") return cmd_dashboard(o);
    usage();
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "tarr-viz: %s\n", e.what());
    usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "tarr-viz: %s\n", e.what());
    return 1;
  }
}
