// tarr-report — analysis and gating front end over the tarr::report
// subsystem.  Three subcommands:
//
//   tarr-report critical-path [run options] [--markdown]
//       [--save-tlog FILE] [--from-tlog FILE]
//       Run the pattern-matched collective over the reordered communicator,
//       record its schedule, and print the critical-path report: the
//       completion-time-determining chain with per-segment channel class
//       (intra-socket / QPI / intra-leaf / cross-core-switch) and
//       serialization / contention / retransmission attribution.
//       --save-tlog additionally streams the run into a `.tlog` trace
//       (docs/TLOG.md); --from-tlog skips the simulation entirely and
//       rebuilds the schedule from such a file — pass the same run options
//       as at capture time and the report is byte-identical (CI cmp's it).
//
//   tarr-report diff [run options] [--markdown]
//       Run the same pattern twice — initial layout (baseline) vs. the
//       topology-aware reordering — and print the mapping-attribution diff:
//       per-channel-class byte/time migration and the top relieved (and
//       newly loaded) cables and QPI directions.
//
//   tarr-report compare [BASELINE CURRENT] [--baseline-dir GLOB]
//       [--candidate-dir GLOB] [--rel-tolerance P] [--abs-tolerance V]
//       [--markdown]
//       Compare two bench snapshot sets (directories of BENCH_*.json,
//       single files, or — via the --*-dir flags or positionally — `*`/`?`
//       globs over the final path component).  Exits 1 if any gated metric
//       of any baseline bench regressed beyond tolerance (or vanished),
//       0 otherwise — this is the CI perf gate (see docs/OBSERVABILITY.md).
//
// Run options (critical-path, diff): --nodes N, --procs P, --layout L,
// --pattern PAT, --mapper heuristic|scotch|greedy, --seed S, --msg BYTES,
// --top K (diff resource lists).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/cli.hpp"
#include "core/topoallgather.hpp"
#include "mapping/comparators.hpp"
#include "report/diff.hpp"
#include "report/record.hpp"
#include "report/render.hpp"
#include "report/snapshot.hpp"
#include "simmpi/layout.hpp"
#include "tlog/reader.hpp"
#include "tlog/writer.hpp"

#include "run_options.hpp"

namespace {

using namespace tarr;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: tarr-report critical-path [run options] [--markdown]\n"
      "                   [--save-tlog FILE] [--from-tlog FILE]\n"
      "       tarr-report diff [run options] [--top K] [--markdown]\n"
      "       tarr-report compare [BASELINE CURRENT] [--baseline-dir G]\n"
      "                   [--candidate-dir G] [--rel-tolerance P]\n"
      "                   [--abs-tolerance V] [--markdown]\n"
      "                   (G: dir, file, or glob like 'b/BENCH_fig?_*.json')\n"
      "run options: --nodes N --procs P --layout L --pattern PAT\n"
      "             --mapper heuristic|scotch|greedy --seed S --msg BYTES\n");
  std::exit(2);
}

struct RunOptions {
  int nodes = 8;
  int procs = 64;
  std::string layout = "cyclic-bunch";
  std::string pattern = "ring";
  std::string mapper = "heuristic";
  std::uint64_t seed = 1;
  long long msg_bytes = 16 * 1024;
  int top_k = 8;
  report::RenderFormat format = report::RenderFormat::Text;
  std::string save_tlog;  ///< also stream the recorded run into a .tlog
  std::string from_tlog;  ///< rebuild the record from a .tlog, no simulation
};

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
      throw Error("tarr-report: pattern has no collective to run");
  }
}

/// Record one run of `pattern` over `comm` (oldrank maps new rank -> old
/// rank for order-restoring collectives; identity for the baseline).
/// `extra` hears the same events as the recorder (e.g. a TlogSink).
report::ScheduleRecord record_run(const simmpi::Communicator& comm,
                                  mapping::Pattern pattern,
                                  const std::vector<Rank>& oldrank,
                                  long long msg_bytes,
                                  trace::TraceSink* extra = nullptr) {
  report::ScheduleRecorder recorder;
  trace::TeeSink tee(&recorder, extra);
  simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                     msg_bytes, comm.size());
  eng.set_trace_sink(&tee);
  run_collective(eng, pattern, oldrank);
  return recorder.take();
}

int parse_run_options(int argc, char** argv, int i, RunOptions& o) {
  for (; i < argc; ++i) {
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
    else if (a == "--top")
      o.top_k = static_cast<int>(cli::parse_int(a, next(), 1, 1 << 20));
    else if (a == "--markdown") o.format = report::RenderFormat::Markdown;
    else if (a == "--save-tlog") o.save_tlog = next();
    else if (a == "--from-tlog") o.from_tlog = next();
    else throw cli::UsageError("unknown option " + a);
  }
  cli::check_run(o.nodes, o.procs, o.layout, o.pattern, o.mapper,
                 {"heuristic", "scotch", "greedy"});
  return i;
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

int cmd_critical_path(int argc, char** argv) {
  RunOptions o;
  parse_run_options(argc, argv, 2, o);
  if (!o.from_tlog.empty() && !o.save_tlog.empty())
    throw cli::UsageError("--from-tlog and --save-tlog are exclusive");
  const topology::Machine machine = topology::Machine::gpc(o.nodes);
  const mapping::Pattern pattern = cli::parse_pattern(o.pattern);
  const simmpi::Communicator comm(
      machine,
      simmpi::make_layout(machine, o.procs, cli::parse_layout(o.layout)));
  // The report header is a pure function of the flags, so live and
  // --from-tlog runs of the same options print identical bytes.
  report::ScheduleRecord rec;
  if (!o.from_tlog.empty()) {
    rec = tlog::read_record(o.from_tlog);
  } else {
    core::ReorderFramework::Options fopts;
    fopts.seed = o.seed;
    core::ReorderFramework fw(machine, fopts);
    const core::ReorderedComm rc = reorder(fw, comm, pattern, o.mapper);
    if (!o.save_tlog.empty()) {
      tlog::TlogSink sink(o.save_tlog);
      rec = record_run(rc.comm, pattern, rc.oldrank, o.msg_bytes, &sink);
      sink.finish();
    } else {
      rec = record_run(rc.comm, pattern, rc.oldrank, o.msg_bytes);
    }
  }
  const auto path = report::analyze_critical_path(rec, machine);
  std::printf("%s over %d ranks on %d nodes (%s mapping, %lld B blocks)\n",
              o.pattern.c_str(), comm.size(), o.nodes, o.mapper.c_str(),
              o.msg_bytes);
  std::fputs(report::render_critical_path(path, o.format).c_str(), stdout);
  return 0;
}

int cmd_diff(int argc, char** argv) {
  RunOptions o;
  parse_run_options(argc, argv, 2, o);
  if (!o.from_tlog.empty() || !o.save_tlog.empty())
    throw cli::UsageError(
        "diff records two runs; --from-tlog/--save-tlog apply to "
        "critical-path only");
  const topology::Machine machine = topology::Machine::gpc(o.nodes);
  const mapping::Pattern pattern = cli::parse_pattern(o.pattern);
  const simmpi::Communicator comm(
      machine,
      simmpi::make_layout(machine, o.procs, cli::parse_layout(o.layout)));
  core::ReorderFramework::Options fopts;
  fopts.seed = o.seed;
  core::ReorderFramework fw(machine, fopts);
  const core::ReorderedComm rc = reorder(fw, comm, pattern, o.mapper);

  std::vector<Rank> identity(static_cast<std::size_t>(comm.size()));
  std::iota(identity.begin(), identity.end(), 0);
  const auto base = record_run(comm, pattern, identity, o.msg_bytes);
  const auto cand = record_run(rc.comm, pattern, rc.oldrank, o.msg_bytes);
  const auto diff = report::diff_runs(base, cand, machine, o.top_k);
  std::printf("%s over %d ranks on %d nodes: %s layout vs %s mapping "
              "(%lld B blocks)\n",
              o.pattern.c_str(), comm.size(), o.nodes, o.layout.c_str(),
              o.mapper.c_str(), o.msg_bytes);
  std::fputs(report::render_diff(diff, o.format).c_str(), stdout);
  return 0;
}

int cmd_compare(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string baseline_sel, candidate_sel;
  report::CompareOptions copts;
  report::RenderFormat format = report::RenderFormat::Text;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--rel-tolerance")
      copts.rel_tolerance =
          cli::parse_double(a, next(), 0.0, std::numeric_limits<double>::max());
    else if (a == "--abs-tolerance")
      copts.abs_tolerance =
          cli::parse_double(a, next(), 0.0, std::numeric_limits<double>::max());
    else if (a == "--baseline-dir")
      baseline_sel = next();
    else if (a == "--candidate-dir")
      candidate_sel = next();
    else if (a == "--markdown")
      format = report::RenderFormat::Markdown;
    else if (a[0] == '-')
      throw cli::UsageError("unknown option " + a);
    else
      paths.emplace_back(a);
  }
  // Positional BASELINE CURRENT and the explicit flags are interchangeable;
  // the flags additionally accept `*`/`?` globs in the final path component
  // (e.g. --baseline-dir 'bench/baselines/BENCH_fig?_*.json').
  std::size_t pos = 0;
  if (baseline_sel.empty() && pos < paths.size()) baseline_sel = paths[pos++];
  if (candidate_sel.empty() && pos < paths.size())
    candidate_sel = paths[pos++];
  if (pos != paths.size() || baseline_sel.empty() || candidate_sel.empty())
    usage();
  const auto baseline = report::load_snapshot_set_glob(baseline_sel);
  const auto current = report::load_snapshot_set_glob(candidate_sel);
  const auto results = report::compare_snapshot_sets(baseline, current, copts);
  std::fputs(report::render_comparison(results, copts, format).c_str(),
             stdout);
  return report::any_regressed(results) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  try {
    if (!std::strcmp(argv[1], "critical-path"))
      return cmd_critical_path(argc, argv);
    if (!std::strcmp(argv[1], "diff")) return cmd_diff(argc, argv);
    if (!std::strcmp(argv[1], "compare")) return cmd_compare(argc, argv);
    usage();
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "tarr-report: %s\n", e.what());
    usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "tarr-report: %s\n", e.what());
    return 1;
  }
}
