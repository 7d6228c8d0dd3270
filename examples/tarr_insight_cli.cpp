// tarr-insight — the run-diagnosis front end over tarr::insight.  Two
// subcommands:
//
//   tarr-insight diagnose [run options] [--congested] [--epoch E]
//       [--cong-seed S] [--cong-prob P] [--fail-on SEVERITY] [--out FILE]
//       [--markdown] [--save-tlog FILE] [--from-tlog FILE]
//       Run the pattern-matched collective (identity layout by default —
//       diagnosing the *un-reordered* run is the point), record its
//       schedule and metrics distributions, and print the ranked findings:
//       stragglers, load imbalance, unfair cable load, contention /
//       retransmission domination, QPI share, distribution tails — each
//       with exact traced evidence and the knob it implicates.
//       --congested prices the run on a fig8-style multi-tenant congested
//       fabric (probe::congestion_mask over the GPC network, deterministic
//       in --cong-seed/--epoch).  With --fail-on the exit code is 3 when
//       any finding reaches the given severity (CI gate on diagnosis).
//       --save-tlog streams the run into a `.tlog` trace (docs/TLOG.md);
//       --from-tlog skips the simulation and rebuilds both the schedule
//       record and the metrics distributions from such a file — with the
//       same run options the diagnosis is byte-identical to the live run.
//
//   tarr-insight trend SELECTOR [--label L] [SELECTOR [--label L] ...]
//       [--rel-threshold P] [--abs-threshold V] [--all]
//       [--fail-on-regression]
//       Load an ordered sequence of bench snapshot sets (dir / file / glob
//       selectors, oldest first; --label names the history position,
//       default the selector itself) and report step changes per gated
//       metric with the commit-window they landed in.  Prints the literal
//       "no change points" when every metric held its level.  With
//       --fail-on-regression the exit code is 1 when any step landed in a
//       metric's worse direction.
//
// Run options (diagnose): --nodes N, --procs P, --layout L, --pattern PAT,
// --mapper identity|heuristic|scotch|greedy, --seed S, --msg BYTES,
// --top K.  Determinism: same flags + same seeds -> byte-identical output
// (CI cmp's two runs).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/cli.hpp"
#include "core/topoallgather.hpp"
#include "tlog/reader.hpp"
#include "tlog/writer.hpp"
#include "fault/degraded.hpp"
#include "insight/insight.hpp"
#include "mapping/comparators.hpp"
#include "probe/congestion.hpp"
#include "simmpi/layout.hpp"
#include "topology/fattree.hpp"
#include "trace/tracer.hpp"

#include "run_options.hpp"

namespace {

using namespace tarr;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: tarr-insight diagnose [run options] [--congested] [--epoch E]\n"
      "                    [--cong-seed S] [--cong-prob P]\n"
      "                    [--fail-on info|warning|critical] [--out FILE]\n"
      "                    [--markdown] [--save-tlog F] [--from-tlog F]\n"
      "       tarr-insight trend SELECTOR [--label L] [SELECTOR ...]\n"
      "                    [--rel-threshold P] [--abs-threshold V] [--all]\n"
      "                    [--fail-on-regression]\n"
      "run options: --nodes N --procs P --layout L --pattern PAT\n"
      "             --mapper identity|heuristic|scotch|greedy --seed S\n"
      "             --msg BYTES --top K\n");
  std::exit(2);
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
      throw Error("tarr-insight: pattern has no collective to run");
  }
}

struct DiagnoseArgs {
  int nodes = 8;
  int procs = 64;
  std::string layout = "cyclic-bunch";
  std::string pattern = "ring";
  std::string mapper = "identity";
  std::uint64_t seed = 1;
  long long msg_bytes = 16 * 1024;
  int top_k = 8;
  bool congested = false;
  int epoch = 0;
  probe::CongestionConfig congestion;
  std::string fail_on;  ///< empty: never gate
  std::string out_path;
  report::RenderFormat format = report::RenderFormat::Text;
  std::string save_tlog;  ///< also stream the recorded run into a .tlog
  std::string from_tlog;  ///< rebuild record + metrics from a .tlog
};

int cmd_diagnose(int argc, char** argv) {
  DiagnoseArgs a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--nodes")
      a.nodes = cli::parse_nodes(arg, next());
    else if (arg == "--procs")
      a.procs = static_cast<int>(cli::parse_int(arg, next(), 1, 1 << 26));
    else if (arg == "--layout") a.layout = next();
    else if (arg == "--pattern") a.pattern = next();
    else if (arg == "--mapper") a.mapper = next();
    else if (arg == "--seed") a.seed = cli::parse_seed(arg, next());
    else if (arg == "--msg")
      a.msg_bytes = cli::parse_int(arg, next(), 1,
                                   std::numeric_limits<long long>::max());
    else if (arg == "--top")
      a.top_k = static_cast<int>(cli::parse_int(arg, next(), 1, 1 << 20));
    else if (arg == "--congested") a.congested = true;
    else if (arg == "--epoch")
      a.epoch = static_cast<int>(cli::parse_int(arg, next(), 0, 1 << 20));
    else if (arg == "--cong-seed") a.congestion.seed = cli::parse_seed(arg, next());
    else if (arg == "--cong-prob")
      a.congestion.link_prob = cli::parse_double(arg, next(), 0.0, 1.0);
    else if (arg == "--fail-on") a.fail_on = next();
    else if (arg == "--out") a.out_path = next();
    else if (arg == "--markdown") a.format = report::RenderFormat::Markdown;
    else if (arg == "--save-tlog") a.save_tlog = next();
    else if (arg == "--from-tlog") a.from_tlog = next();
    else throw cli::UsageError("unknown option " + arg);
  }
  cli::check_run(a.nodes, a.procs, a.layout, a.pattern, a.mapper,
                 {"identity", "heuristic", "scotch", "greedy"});
  if (!a.from_tlog.empty() && !a.save_tlog.empty())
    throw cli::UsageError("--from-tlog and --save-tlog are exclusive");
  // Parse the gate severity before the run so a typo fails in milliseconds,
  // and probe the output path the same way.
  std::optional<insight::Severity> gate;
  if (!a.fail_on.empty()) gate = insight::parse_severity(a.fail_on);
  if (!a.out_path.empty()) trace::Tracer::ensure_writable(a.out_path);

  // The congested fabric is realized exactly like the fig8 scenario: a
  // seeded multi-tenant mask over the switch graph, then the degraded
  // machine prices the run.  --congested right-sizes the fabric (two nodes
  // per leaf, wide host links, capacity-2 leaf uplinks) so tenant traffic
  // lands on links the job shares: on the paper's 30-nodes-per-leaf tree a
  // small job never leaves its leaf and congestion could not touch it.
  const topology::Machine base =
      a.congested
          ? topology::Machine(
                topology::NodeShape{},
                topology::build_gpc_network(
                    a.nodes,
                    {.num_leaves = (a.nodes + 1) / 2, .nodes_per_leaf = 2,
                     .num_cores = 1, .uplinks_per_core = 2,
                     .lines_per_core = 1, .spines_per_core = 1,
                     .leaves_per_line = (a.nodes + 1) / 2,
                     .host_link_capacity = 8}))
          : topology::Machine::gpc(a.nodes);
  std::optional<fault::DegradedTopology> degraded;
  if (a.congested)
    degraded.emplace(base, probe::congestion_mask(base.network(), a.congestion,
                                                  a.epoch));
  const topology::Machine& machine = a.congested ? degraded->machine() : base;

  const mapping::Pattern pattern = cli::parse_pattern(a.pattern);
  const simmpi::Communicator comm(
      machine,
      simmpi::make_layout(machine, a.procs, cli::parse_layout(a.layout)));
  std::vector<Rank> oldrank(static_cast<std::size_t>(comm.size()));
  std::iota(oldrank.begin(), oldrank.end(), 0);

  const simmpi::Communicator* run_comm = &comm;
  std::optional<core::ReorderedComm> rc;
  // In --from-tlog mode the mapping run is skipped along with the
  // simulation; rank count (all the header needs) is mapper-independent.
  if (a.from_tlog.empty() && a.mapper != "identity") {
    core::ReorderFramework::Options fopts;
    fopts.seed = a.seed;
    core::ReorderFramework fw(machine, fopts);
    if (a.mapper == "heuristic") rc = fw.reorder(comm, pattern);
    else if (a.mapper == "scotch")
      rc = fw.reorder_with(comm, *mapping::make_scotch_like_mapper(pattern));
    else
      rc = fw.reorder_with(comm, *mapping::make_greedy_graph_mapper(pattern));
    run_comm = &rc->comm;
    oldrank = rc->oldrank;
  }

  // Record the schedule AND the metrics distributions in one run: the
  // recorder feeds the imbalance analytics, the tracer's registry feeds
  // the tail-latency findings.  A `.tlog` replay delivers the identical
  // event stream to the same tee, so both rebuild byte-exactly.
  report::ScheduleRecorder recorder;
  trace::TracerOptions topts;
  topts.timeline = false;
  trace::Tracer tracer(topts);
  trace::TeeSink tee(&tracer, &recorder);
  if (!a.from_tlog.empty()) {
    tlog::replay(a.from_tlog, tee);
  } else {
    std::optional<tlog::TlogSink> tlog_sink;
    if (!a.save_tlog.empty()) tlog_sink.emplace(a.save_tlog);
    trace::TeeSink outer(&tee, tlog_sink ? &*tlog_sink : nullptr);
    simmpi::Engine eng(*run_comm, simmpi::CostConfig{},
                       simmpi::ExecMode::Timed, a.msg_bytes, run_comm->size());
    eng.set_trace_sink(&outer);
    run_collective(eng, pattern, oldrank);
    if (tlog_sink) tlog_sink->finish();
  }
  const report::ScheduleRecord rec = recorder.take();

  insight::DiagnoseOptions dopts;
  dopts.top_k = a.top_k;
  const insight::Diagnosis d =
      insight::diagnose(rec, machine, dopts, &tracer.metrics());

  std::printf("%s over %d ranks on %d nodes (%s mapping%s, %lld B blocks)\n",
              a.pattern.c_str(), run_comm->size(), a.nodes, a.mapper.c_str(),
              a.congested ? ", congested fabric" : "", a.msg_bytes);
  const std::string body = insight::render_findings(d, a.format);
  std::fputs(body.c_str(), stdout);
  if (!a.out_path.empty()) {
    std::FILE* f = std::fopen(a.out_path.c_str(), "wb");
    if (f == nullptr)
      throw Error("tarr-insight: cannot write " + a.out_path);
    const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = n == body.size() && std::fclose(f) == 0;
    if (!ok) throw Error("tarr-insight: short write to " + a.out_path);
  }
  if (gate && d.has_severity_at_least(*gate)) return 3;
  return 0;
}

int cmd_trend(int argc, char** argv) {
  std::vector<insight::SnapshotSet> sets;
  insight::ChangePointOptions opts;
  bool fail_on_regression = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--label") {
      if (sets.empty())
        throw cli::UsageError("--label must follow a selector");
      sets.back().label = next();
    } else if (arg == "--rel-threshold") {
      opts.rel_threshold = cli::parse_double(
          arg, next(), 0.0, std::numeric_limits<double>::max());
    } else if (arg == "--abs-threshold") {
      opts.abs_threshold = cli::parse_double(
          arg, next(), 0.0, std::numeric_limits<double>::max());
    } else if (arg == "--all") {
      opts.gated_only = false;
    } else if (arg == "--fail-on-regression") {
      fail_on_regression = true;
    } else if (arg[0] == '-') {
      throw cli::UsageError("unknown option " + arg);
    } else {
      insight::SnapshotSet s;
      s.label = argv[i];
      s.snapshots = report::load_snapshot_set_glob(argv[i]);
      sets.push_back(std::move(s));
    }
  }
  if (sets.size() < 2) usage();
  const auto points = insight::detect_change_points(sets, opts);
  std::fputs(insight::render_change_points(points).c_str(), stdout);
  if (fail_on_regression)
    for (const auto& cp : points)
      if (cp.regression) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  try {
    if (!std::strcmp(argv[1], "diagnose")) return cmd_diagnose(argc, argv);
    if (!std::strcmp(argv[1], "trend")) return cmd_trend(argc, argv);
    usage();
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "tarr-insight: %s\n", e.what());
    usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "tarr-insight: %s\n", e.what());
    return 1;
  }
}
