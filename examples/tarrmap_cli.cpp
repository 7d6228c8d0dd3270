// tarrmap — command-line front end to the mapping stack, the tool a cluster
// operator would run: given a machine, a process count, an initial layout
// and a collective pattern, print the reordered rank placement and its
// predicted effect.
//
// Usage:
//   tarrmap [--nodes N] [--procs P] [--layout block-bunch|block-scatter|
//            cyclic-bunch|cyclic-scatter] [--pattern recursive-doubling|
//            ring|binomial-bcast|binomial-gather|bruck]
//            [--mapper heuristic|scotch|greedy] [--seed S] [--quiet]
//            [--msg BYTES] [--trace out.json] [--metrics out.csv]
//            [--tlog out.tlog] [--trace-wall] [--report] [--html out.html]
//            [--prof out.csv] [--prof-speedscope out.json]
//            [--prof-collapsed out.txt] [--prof-wall]
//            [--insight out.txt] [--out-dir DIR]
//
// With --trace/--metrics/--report/--html the tool also *runs* the
// pattern-matched collective (Timed engine, --msg bytes per block) over the
// reordered communicator and exports the observability artifacts: a
// Perfetto-loadable Chrome trace-event timeline, the metrics registry CSV,
// a critical-path report of the just-traced run, and/or a self-contained
// HTML dashboard — topology load, communication matrices, timelines and the
// mapping-attribution diff of the baseline layout vs. the reordering (see
// docs/OBSERVABILITY.md).  --tlog additionally streams every event of the
// run — the framework's wall spans and counters included — into a compact
// bounded-memory `.tlog` binary trace (docs/TLOG.md; query with tarr-log,
// re-analyze with --from-tlog on tarr-report/tarr-viz/tarr-insight).
// Output paths are probed for writability *before*
// the reorder+simulation so a typo'd path fails in milliseconds, not after
// the run.  Trace files and dashboards are byte-identical across same-seed
// runs unless --trace-wall opts into real wall-clock durations for the
// mapping spans (the dashboard never embeds wall-clock values).
//
// With --prof the tool additionally self-profiles: a tarr::prof ambient
// profiler covers distance extraction, the mapping run and the simulated
// collective, and the deterministic work-counter flat profile is written as
// CSV (plus optional speedscope JSON / collapsed stacks for flamegraphs).
// Counter profiles are byte-identical across same-seed runs; --prof-wall
// opts wall-clock columns into the CSV, mirroring --trace-wall.  Profiler
// totals are also published as prof.* rows into the --metrics CSV, and
// --html gains an "Overheads" section.
//
// With --insight the tool diagnoses the traced run (tarr::insight):
// stragglers, load imbalance, fairness and critical-path pathologies with
// exact evidence, written as text to the given path; --html gains a
// "Diagnosis" section over the baseline run.
//
// --out-dir DIR derives every artifact path from one flag — DIR/trace.json,
// DIR/metrics.csv, DIR/report.txt, DIR/dashboard.html, DIR/prof.csv,
// DIR/insight.txt — creating DIR if needed; an explicit per-artifact flag
// overrides its derived path.  All paths are probed up front.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "collectives/allgather.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/bits.hpp"
#include "common/cli.hpp"
#include "core/topoallgather.hpp"
#include "tlog/writer.hpp"
#include "insight/insight.hpp"
#include "mapping/comparators.hpp"
#include "mapping/mapcost.hpp"
#include "prof/prof.hpp"
#include "report/critical_path.hpp"
#include "report/record.hpp"
#include "report/render.hpp"
#include "simmpi/layout.hpp"
#include "topology/fattree.hpp"
#include "trace/tracer.hpp"
#include "viz/dashboard.hpp"

#include "run_options.hpp"

namespace {

using namespace tarr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes N] [--procs P] [--layout L] "
               "[--pattern PAT] [--mapper M] [--seed S] [--quiet] "
               "[--msg BYTES] [--trace out.json] [--metrics out.csv] "
               "[--tlog out.tlog] "
               "[--trace-wall] [--report] [--html out.html] "
               "[--prof out.csv] [--prof-speedscope out.json] "
               "[--prof-collapsed out.txt] [--prof-wall] "
               "[--insight out.txt] [--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

/// Run the collective the pattern describes over the reordered communicator,
/// emitting through the engine's trace sink.
void run_traced_collective(simmpi::Engine& eng, mapping::Pattern pattern,
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
      throw Error("tarrmap: pattern has no collective to trace");
  }
}

void write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw Error("cannot write " + path);
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (std::fclose(f) != 0 || !ok) throw Error("failed writing " + path);
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 8;
  int procs = 64;
  std::string layout_name = "cyclic-bunch";
  std::string pattern_name = "ring";
  std::string mapper_name = "heuristic";
  std::uint64_t seed = 1;
  bool quiet = false;
  long long msg_bytes = 16 * 1024;
  std::string trace_path, metrics_path, html_path, tlog_path;
  std::string prof_path, prof_speedscope_path, prof_collapsed_path;
  std::string insight_path, out_dir, report_path;
  bool trace_wall = false;
  bool prof_wall = false;
  bool report = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) throw cli::UsageError("missing value for " + a);
        return argv[++i];
      };
      if (a == "--nodes") {
        // Machine::gpc builds at most the paper's fabric.
        nodes = cli::parse_nodes(a, next());
      } else if (a == "--procs") {
        procs = static_cast<int>(cli::parse_int(a, next(), 1, 1 << 26));
      } else if (a == "--layout") {
        layout_name = next();
      } else if (a == "--pattern") {
        pattern_name = next();
      } else if (a == "--mapper") {
        mapper_name = next();
      } else if (a == "--seed") {
        seed = cli::parse_seed(a, next());
      } else if (a == "--quiet") {
        quiet = true;
      } else if (a == "--msg") {
        msg_bytes = cli::parse_int(a, next(), 1,
                                   std::numeric_limits<long long>::max());
      } else if (a == "--trace") {
        trace_path = next();
      } else if (a == "--metrics") {
        metrics_path = next();
      } else if (a == "--tlog") {
        tlog_path = next();
      } else if (a == "--trace-wall") {
        trace_wall = true;
      } else if (a == "--report") {
        report = true;
      } else if (a == "--html") {
        html_path = next();
      } else if (a == "--prof") {
        prof_path = next();
      } else if (a == "--prof-speedscope") {
        prof_speedscope_path = next();
      } else if (a == "--prof-collapsed") {
        prof_collapsed_path = next();
      } else if (a == "--prof-wall") {
        prof_wall = true;
      } else if (a == "--insight") {
        insight_path = next();
      } else if (a == "--out-dir") {
        out_dir = next();
      } else {
        throw cli::UsageError("unknown option " + a);
      }
    }
    // Names and sizes are checked before the machine is built or any
    // output is opened, so bad input leaves no work and no empty artifact.
    cli::check_run(nodes, procs, layout_name, pattern_name, mapper_name,
                   {"heuristic", "scotch", "greedy"});
    const simmpi::LayoutSpec layout = cli::parse_layout(layout_name);
    const mapping::Pattern pattern = cli::parse_pattern(pattern_name);
    if (pattern == mapping::Pattern::RecursiveDoubling && !is_pow2(procs))
      throw cli::UsageError("--pattern recursive-doubling needs a "
                            "power-of-two --procs, not " +
                            std::to_string(procs));

    // --out-dir derives every artifact path from one flag; explicit
    // per-artifact flags override their derived path.
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const std::string d = out_dir + "/";
      if (trace_path.empty()) trace_path = d + "trace.json";
      if (metrics_path.empty()) metrics_path = d + "metrics.csv";
      if (tlog_path.empty()) tlog_path = d + "trace.tlog";
      if (html_path.empty()) html_path = d + "dashboard.html";
      if (prof_path.empty()) prof_path = d + "prof.csv";
      if (insight_path.empty()) insight_path = d + "insight.txt";
      report_path = d + "report.txt";
      report = true;
    }

    // Fail fast on unwritable output paths: the reorder + simulation below
    // can run for minutes at scale, and discovering a typo'd --trace path
    // only afterwards throws that work away.
    if (!trace_path.empty()) trace::Tracer::ensure_writable(trace_path);
    if (!metrics_path.empty()) trace::Tracer::ensure_writable(metrics_path);
    if (!html_path.empty()) trace::Tracer::ensure_writable(html_path);
    if (!prof_path.empty()) trace::Tracer::ensure_writable(prof_path);
    if (!prof_speedscope_path.empty())
      trace::Tracer::ensure_writable(prof_speedscope_path);
    if (!prof_collapsed_path.empty())
      trace::Tracer::ensure_writable(prof_collapsed_path);
    if (!insight_path.empty()) trace::Tracer::ensure_writable(insight_path);
    if (!report_path.empty()) trace::Tracer::ensure_writable(report_path);

    // Self-profiling: the ambient profiler covers machine construction
    // (network and route build), distance extraction, the mapping run and
    // the simulated collective below.  The counting allocator is registered
    // up front so mem.* deltas are attributed too.
    const bool profiling = !prof_path.empty() ||
                           !prof_speedscope_path.empty() ||
                           !prof_collapsed_path.empty();
    prof::Profiler profiler;
    std::optional<prof::ScopedThreadProfiler> prof_ambient;
    if (profiling) {
      prof::link_memhook();
      prof_ambient.emplace(&profiler);
    }

    const topology::Machine machine = [&] {
      prof::ProfScope pscope("machine");
      return topology::Machine::gpc(nodes);
    }();
    const simmpi::Communicator comm(
        machine, simmpi::make_layout(machine, procs, layout));

    core::ReorderFramework::Options opts;
    opts.seed = seed;
    core::ReorderFramework framework(machine, opts);

    // Observability: one Tracer catches the whole run — the framework's
    // Fig 7 wall spans and mapping decision counters, then the collective's
    // stages, transfers and link/QPI load below.
    std::unique_ptr<trace::Tracer> tracer;
    if (!trace_path.empty() || !metrics_path.empty()) {
      trace::TracerOptions topts;
      topts.real_wall_time = trace_wall;
      tracer = std::make_unique<trace::Tracer>(topts);
    }
    // --tlog streams the same events into the bounded-memory binary trace;
    // its sink opens the file right here, so a bad path fails before the
    // reorder below just like the probed paths above.
    std::optional<tlog::TlogSink> tlog_sink;
    if (!tlog_path.empty()) tlog_sink.emplace(tlog_path);
    trace::TeeSink obs(tracer.get(), tlog_sink ? &*tlog_sink : nullptr);
    if (tracer || tlog_sink) framework.set_trace_sink(&obs);
    // --report/--html record the run's schedule structure alongside (or
    // instead of) the tracer: --report prints a critical-path analysis,
    // --html renders the dashboard.
    const bool record = report || !html_path.empty() || !insight_path.empty();
    report::ScheduleRecorder recorder;
    trace::TeeSink tee(&obs, record ? &recorder : nullptr);

    const core::ReorderedComm rc = [&] {
      if (mapper_name == "heuristic")
        return framework.reorder(comm, pattern);
      if (mapper_name == "scotch")
        return framework.reorder_with(
            comm, *mapping::make_scotch_like_mapper(pattern));
      return framework.reorder_with(
          comm, *mapping::make_greedy_graph_mapper(pattern));
    }();

    const auto g = mapping::build_pattern_graph(pattern, procs);
    const auto& d = framework.distances();
    const std::vector<int> before(comm.rank_to_core().begin(),
                                  comm.rank_to_core().end());
    const std::vector<int> after(rc.comm.rank_to_core().begin(),
                                 rc.comm.rank_to_core().end());

    std::printf("machine : %d nodes x %d cores (%d total)\n", nodes,
                machine.cores_per_node(), machine.total_cores());
    std::printf("job     : %d procs, %s initial layout\n", procs,
                layout_name.c_str());
    std::printf("pattern : %s, mapper %s, seed %llu\n", pattern_name.c_str(),
                mapper_name.c_str(), static_cast<unsigned long long>(seed));
    std::printf("cost    : %.0f -> %.0f (weighted distance)\n",
                mapping::mapping_cost(g, before, d),
                mapping::mapping_cost(g, after, d));
    std::printf("overhead: %.4f s mapping, %.4f s distance extraction\n",
                rc.mapping_seconds, framework.distance_extraction_seconds());

    if (tracer || record || profiling || tlog_sink) {
      simmpi::Engine eng(rc.comm, simmpi::CostConfig{},
                         simmpi::ExecMode::Timed, msg_bytes, rc.comm.size());
      if (tracer || record || tlog_sink) eng.set_trace_sink(&tee);
      {
        prof::ProfScope pscope("simulate");
        run_traced_collective(eng, pattern, rc.oldrank);
      }
      std::printf("traced  : %s over %d ranks, %lld B blocks, %.1f us "
                  "simulated\n",
                  pattern_name.c_str(), rc.comm.size(), msg_bytes,
                  eng.total());
      if (!trace_path.empty()) {
        tracer->write_timeline(trace_path);
        std::printf("trace   : %s\n", trace_path.c_str());
      }
      if (!metrics_path.empty()) {
        // Profiler totals ride the metrics CSV as prof.* counter rows.
        if (profiling) prof::publish(profiler.snapshot(), tracer->metrics());
        tracer->write_metrics(metrics_path);
        std::printf("metrics : %s\n", metrics_path.c_str());
      }
      if (tlog_sink) {
        tlog_sink->finish();
        std::printf("tlog    : %s (%llu bytes, %lld events)\n",
                    tlog_path.c_str(),
                    static_cast<unsigned long long>(tlog_sink->totals().bytes),
                    tlog_sink->totals().stored_events());
      }
      if (report) {
        const auto path =
            report::analyze_critical_path(recorder.record(), machine);
        const std::string rendered = report::render_critical_path(path);
        std::fputs(rendered.c_str(), stdout);
        if (!report_path.empty()) {
          write_text_file(report_path, rendered);
          std::printf("report  : %s\n", report_path.c_str());
        }
      }
      if (!insight_path.empty()) {
        // Diagnose the reordered run just traced; the tracer's metrics
        // registry (when present) contributes distribution-tail findings.
        const insight::Diagnosis diag = insight::diagnose(
            recorder.record(), machine, insight::DiagnoseOptions{},
            tracer ? &tracer->metrics() : nullptr);
        write_text_file(insight_path, insight::render_findings(diag));
        std::printf("insight : %s\n", insight_path.c_str());
      }
      if (!html_path.empty()) {
        // Baseline run of the same pattern over the *unreordered*
        // communicator, so the dashboard shows the before/after story.
        report::ScheduleRecorder base_recorder;
        simmpi::Engine base_eng(comm, simmpi::CostConfig{},
                                simmpi::ExecMode::Timed, msg_bytes,
                                comm.size());
        base_eng.set_trace_sink(&base_recorder);
        std::vector<Rank> identity(static_cast<std::size_t>(comm.size()));
        for (Rank j = 0; j < comm.size(); ++j) identity[j] = j;
        {
          prof::ProfScope pscope("simulate:baseline");
          run_traced_collective(base_eng, pattern, identity);
        }

        viz::DashboardInputs in;
        in.title = "tarrmap dashboard";
        in.subtitle = pattern_name + " over " +
                      std::to_string(rc.comm.size()) + " ranks on " +
                      std::to_string(nodes) + " nodes, " + layout_name +
                      " layout vs " + mapper_name + " mapping, " +
                      std::to_string(msg_bytes) + " B blocks (seed " +
                      std::to_string(seed) + ")";
        in.machine = &machine;
        const report::ScheduleRecord base_record = base_recorder.take();
        in.baseline = &base_record;
        in.baseline_label = layout_name;
        const report::ScheduleRecord& cand_record = recorder.record();
        in.candidate = &cand_record;
        in.candidate_label = mapper_name;
        prof::Profile dash_profile;
        if (profiling) {
          dash_profile = profiler.snapshot();
          in.profile = &dash_profile;
          in.profile_label = "tarrmap run";
        }
        // Diagnose the *baseline* run: the dashboard's before/after story
        // starts from what is wrong with the un-reordered layout.
        const insight::Diagnosis base_diag =
            insight::diagnose(base_record, machine);
        in.diagnosis = &base_diag;
        const std::string html = viz::render_dashboard(in);
        std::FILE* f = std::fopen(html_path.c_str(), "wb");
        if (f == nullptr) throw Error("cannot write " + html_path);
        const bool ok =
            std::fwrite(html.data(), 1, html.size(), f) == html.size();
        if (std::fclose(f) != 0 || !ok)
          throw Error("failed writing " + html_path);
        std::printf("html    : %s\n", html_path.c_str());
      }
    }
    if (profiling) {
      const prof::Profile profile = profiler.snapshot();
      if (!prof_path.empty()) {
        prof::ExportOptions popts;
        popts.include_wall = prof_wall;
        write_text_file(prof_path, prof::flat_csv(profile, popts));
        std::printf("prof    : %s (%zu scopes%s)\n", prof_path.c_str(),
                    profile.entries.size(),
                    prof_wall ? ", wall columns on" : "");
      }
      if (!prof_speedscope_path.empty()) {
        write_text_file(prof_speedscope_path,
                        prof::speedscope_json(profile, "work", "tarrmap"));
        std::printf("prof-ss : %s\n", prof_speedscope_path.c_str());
      }
      if (!prof_collapsed_path.empty()) {
        write_text_file(prof_collapsed_path,
                        prof::collapsed_stacks(profile, "work"));
        std::printf("prof-cs : %s\n", prof_collapsed_path.c_str());
      }
    }
    if (!quiet) {
      std::printf("\nnew_rank -> core (node.local):\n");
      for (Rank j = 0; j < rc.comm.size(); ++j) {
        const CoreId c = rc.comm.core_of(j);
        std::printf("  %4d -> %4d (%d.%d)%s", j, c,
                    machine.node_of_core(c), machine.local_core(c),
                    (j + 1) % 4 == 0 ? "\n" : "");
      }
      if (rc.comm.size() % 4 != 0) std::printf("\n");
    }
    return 0;
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "tarrmap: %s\n", e.what());
    usage(argv[0]);
  } catch (const Error& e) {
    std::fprintf(stderr, "tarrmap: %s\n", e.what());
    return 1;
  }
}
