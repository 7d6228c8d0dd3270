// tarr-analyze — static schedule certification front end over the
// tarr::analyze subsystem.  Subcommands:
//
//   tarr-analyze certify --collective NAME [run options]
//       Run the named collective in Data mode, record its schedule, and
//       statically verify it against the collective's contract: dataflow
//       (abstract interpretation of per-rank block-knowledge sets),
//       well-formedness (matching, self-transfers, stage order, byte
//       conservation), and capacity (static per-stage loads cross-checked
//       against the trace counters).  Prints the certificate; exits 0 when
//       CERTIFIED, 1 when REJECTED.
//
//   tarr-analyze certify-all [run options]
//       Certify every built-in collective schedule; one verdict line each,
//       exit 1 if any is rejected.  This is the CI static-audit gate.
//
//   tarr-analyze list
//       List the collective names `certify` accepts.
//
// Run options: --nodes N, --procs P, --layout L, --reorder (apply the
// paper's topology-aware reordering first), --seed S (mapping seed),
// --msg BYTES, --max-link-load X (hazard if a cable direction carries more
// than X times the stage's mean nonzero load), --max-qpi-bytes B,
// --mutate drop-transfer|swap-stages|truncate-bytes|duplicate-block,
// --mutate-seed S (seed the named schedule corruption before analysis; the
// certificate must then report a counterexample and the exit code is 1).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/mutate.hpp"
#include "collectives/allgather.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/contracts.hpp"
#include "collectives/gather_bcast.hpp"
#include "collectives/hierarchical.hpp"
#include "common/cli.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "report/record.hpp"
#include "simmpi/layout.hpp"

#include "run_options.hpp"

namespace {

using namespace tarr;
using collectives::AllgatherAlgo;
using collectives::AllgatherOptions;
using collectives::AlltoallAlgo;
using collectives::OrderFix;
using collectives::TreeAlgo;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: tarr-analyze certify --collective NAME [run options]\n"
      "       tarr-analyze certify-all [run options]\n"
      "       tarr-analyze list\n"
      "run options: --nodes N --procs P --layout L --reorder --seed S\n"
      "             --msg BYTES --max-link-load X --max-qpi-bytes B\n"
      "             --mutate CLASS --mutate-seed S\n"
      "CLASS: drop-transfer | swap-stages | truncate-bytes |"
      " duplicate-block\n");
  std::exit(2);
}

struct Options {
  std::string collective;
  int nodes = 2;
  int procs = 16;
  std::string layout = "block-bunch";
  bool reorder = false;
  std::uint64_t seed = 1;
  long long msg_bytes = 256;
  double max_link_load = 0.0;
  double max_qpi_bytes = 0.0;
  std::string mutate;
  std::uint64_t mutate_seed = 1;
};

/// One certifiable built-in schedule: how to run it and what it promises.
struct Spec {
  const char* name;
  /// buf_blocks = buf_mul * p, or 1 when buf_mul == 0.
  int buf_mul;
  /// Mapping pattern used for --reorder; hierarchical runners need a
  /// node-contiguous communicator, so they ignore --reorder/--procs.
  mapping::Pattern pattern;
  bool reorderable;
  bool hierarchical;
  std::function<void(simmpi::Engine&, const std::vector<Rank>&)> run;
  std::function<analyze::Contract(int, int, const std::vector<Rank>&)>
      contract;
};

bool is_identity(const std::vector<Rank>& o) {
  return o == identity_permutation(static_cast<int>(o.size()));
}

const std::vector<Spec>& specs() {
  using simmpi::Engine;
  using RankVec = std::vector<Rank>;
  static const std::vector<Spec> kSpecs = {
      {"allgather-rd", 1, mapping::Pattern::RecursiveDoubling, true, false,
       [](Engine& e, const RankVec& o) {
         const OrderFix fix = is_identity(o) ? OrderFix::None
                                                         : OrderFix::InitComm;
         collectives::run_allgather(
             e, AllgatherOptions{AllgatherAlgo::RecursiveDoubling, fix}, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_allgather(
             p, b, AllgatherAlgo::RecursiveDoubling, o);
       }},
      {"allgather-rd-endshuffle", 1, mapping::Pattern::RecursiveDoubling,
       true, false,
       [](Engine& e, const RankVec& o) {
         const OrderFix fix = is_identity(o)
                                  ? OrderFix::None
                                  : OrderFix::EndShuffle;
         collectives::run_allgather(
             e, AllgatherOptions{AllgatherAlgo::RecursiveDoubling, fix}, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_allgather(
             p, b, AllgatherAlgo::RecursiveDoubling, o);
       }},
      {"allgather-ring", 1, mapping::Pattern::Ring, true, false,
       [](Engine& e, const RankVec& o) {
         collectives::run_allgather(
             e, AllgatherOptions{AllgatherAlgo::Ring, OrderFix::None}, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_allgather(p, b, AllgatherAlgo::Ring, o);
       }},
      {"allgather-bruck", 1, mapping::Pattern::Bruck, true, false,
       [](Engine& e, const RankVec& o) {
         collectives::run_allgather(
             e, AllgatherOptions{AllgatherAlgo::Bruck, OrderFix::None}, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_allgather(p, b, AllgatherAlgo::Bruck,
                                                o);
       }},
      {"hier-allgather", 1, mapping::Pattern::RecursiveDoubling, false, true,
       [](Engine& e, const RankVec& o) {
         collectives::run_hier_allgather(
             e, collectives::HierAllgatherOptions{}, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_hier_allgather(p, b, o, false);
       }},
      {"hier-allgather-pipelined", 1, mapping::Pattern::RecursiveDoubling,
       false, true,
       [](Engine& e, const RankVec& o) {
         collectives::run_hier_allgather_pipelined(
             e, collectives::IntraAlgo::Binomial, OrderFix::None, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_hier_allgather(p, b, o, true);
       }},
      {"gather-linear", 1, mapping::Pattern::BinomialGather, true, false,
       [](Engine& e, const RankVec& o) {
         collectives::run_gather(e, TreeAlgo::Linear, OrderFix::None, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_gather(p, b, TreeAlgo::Linear, o);
       }},
      {"gather-binomial", 1, mapping::Pattern::BinomialGather, true, false,
       [](Engine& e, const RankVec& o) {
         const OrderFix fix = is_identity(o) ? OrderFix::None
                                                         : OrderFix::InitComm;
         collectives::run_gather(e, TreeAlgo::Binomial, fix, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_gather(p, b, TreeAlgo::Binomial, o);
       }},
      {"bcast-linear", 0, mapping::Pattern::BinomialBcast, true, false,
       [](Engine& e, const RankVec&) {
         collectives::run_bcast(e, TreeAlgo::Linear);
       },
       [](int p, int b, const RankVec&) {
         return collectives::contract_bcast(p, b, TreeAlgo::Linear);
       }},
      {"bcast-binomial", 0, mapping::Pattern::BinomialBcast, true, false,
       [](Engine& e, const RankVec&) {
         collectives::run_bcast(e, TreeAlgo::Binomial);
       },
       [](int p, int b, const RankVec&) {
         return collectives::contract_bcast(p, b, TreeAlgo::Binomial);
       }},
      {"bcast-scatter-allgather", 1, mapping::Pattern::BinomialBcast, false,
       false,
       [](Engine& e, const RankVec&) {
         collectives::run_bcast_scatter_allgather(
             e, AllgatherAlgo::RecursiveDoubling);
       },
       [](int p, int b, const RankVec&) {
         return collectives::contract_bcast_scatter_allgather(
             p, b, AllgatherAlgo::RecursiveDoubling);
       }},
      {"scatter-linear", 1, mapping::Pattern::BinomialGather, true, false,
       [](Engine& e, const RankVec& o) {
         collectives::run_scatter(e, TreeAlgo::Linear, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_scatter(p, b, TreeAlgo::Linear, o);
       }},
      {"scatter-binomial", 1, mapping::Pattern::BinomialGather, true, false,
       [](Engine& e, const RankVec& o) {
         collectives::run_scatter(e, TreeAlgo::Binomial, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_scatter(p, b, TreeAlgo::Binomial, o);
       }},
      {"alltoall-rotation", 2, mapping::Pattern::RecursiveDoubling, true,
       false,
       [](Engine& e, const RankVec& o) {
         collectives::run_alltoall(e, AlltoallAlgo::Rotation, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_alltoall(p, b, AlltoallAlgo::Rotation,
                                               o);
       }},
      {"alltoall-pairwise", 2, mapping::Pattern::RecursiveDoubling, true,
       false,
       [](Engine& e, const RankVec& o) {
         collectives::run_alltoall(e, AlltoallAlgo::PairwiseXor, o);
       },
       [](int p, int b, const RankVec& o) {
         return collectives::contract_alltoall(
             p, b, AlltoallAlgo::PairwiseXor, o);
       }},
      {"allreduce-rd", 0, mapping::Pattern::RecursiveDoubling, false, false,
       [](Engine& e, const RankVec&) { collectives::run_allreduce_rd(e); },
       [](int p, int b, const RankVec&) {
         return collectives::contract_allreduce_rd(p, b);
       }},
      {"allreduce-rabenseifner", 1, mapping::Pattern::RecursiveDoubling,
       false, false,
       [](Engine& e, const RankVec&) {
         collectives::run_allreduce_rabenseifner(e);
       },
       [](int p, int b, const RankVec&) {
         return collectives::contract_allreduce_rabenseifner(p, b);
       }},
  };
  return kSpecs;
}

analyze::Mutation parse_mutation(const std::string& s) {
  for (auto m : {analyze::Mutation::DropTransfer, analyze::Mutation::SwapStages,
                 analyze::Mutation::TruncateBytes,
                 analyze::Mutation::DuplicateBlock})
    if (s == analyze::to_string(m)) return m;
  throw Error("unknown mutation class: " + s);
}

int parse_options(int argc, char** argv, Options& o) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--collective") o.collective = next();
    else if (a == "--nodes")
      o.nodes = cli::parse_nodes(a, next());
    else if (a == "--procs")
      o.procs = static_cast<int>(cli::parse_int(a, next(), 1, 1 << 26));
    else if (a == "--layout") o.layout = next();
    else if (a == "--reorder") o.reorder = true;
    else if (a == "--seed") o.seed = cli::parse_seed(a, next());
    else if (a == "--msg")
      o.msg_bytes = cli::parse_int(a, next(), 1,
                                   std::numeric_limits<long long>::max());
    else if (a == "--max-link-load")
      o.max_link_load = cli::parse_double(a, next(), 0.0, 1e18);
    else if (a == "--max-qpi-bytes")
      o.max_qpi_bytes = cli::parse_double(a, next(), 0.0, 1e18);
    else if (a == "--mutate") o.mutate = next();
    else if (a == "--mutate-seed") o.mutate_seed = cli::parse_seed(a, next());
    else throw cli::UsageError("unknown option " + a);
  }
  cli::parse_layout(o.layout);  // a bad name fails before any work
  return argc;
}

/// Record + analyze one spec; prints nothing, returns the certificate.
analyze::Certificate certify_spec(const Spec& spec, const Options& o,
                                  const topology::Machine& machine) {
  // Hierarchical runners need node-contiguous full nodes.
  const int p = spec.hierarchical ? machine.total_cores() : o.procs;
  const simmpi::LayoutSpec layout =
      spec.hierarchical ? simmpi::LayoutSpec{} : cli::parse_layout(o.layout);
  const simmpi::Communicator comm(machine,
                                  simmpi::make_layout(machine, p, layout));
  std::vector<Rank> oldrank = identity_permutation(p);
  simmpi::Communicator run_comm = comm;
  if (o.reorder && spec.reorderable) {
    core::ReorderFramework::Options fopts;
    fopts.seed = o.seed;
    core::ReorderFramework fw(machine, fopts);
    core::ReorderedComm rc = fw.reorder(comm, spec.pattern);
    run_comm = rc.comm;
    oldrank = rc.oldrank;
  }
  const int buf_blocks = spec.buf_mul == 0 ? 1 : spec.buf_mul * p;
  simmpi::Engine eng(run_comm, simmpi::CostConfig{}, simmpi::ExecMode::Data,
                     o.msg_bytes, buf_blocks);
  report::ScheduleRecorder recorder;
  eng.set_trace_sink(&recorder);
  spec.run(eng, oldrank);
  report::ScheduleRecord rec = recorder.take();
  if (!o.mutate.empty()) {
    const std::string what =
        analyze::apply_mutation(rec, parse_mutation(o.mutate), o.mutate_seed);
    std::printf("mutated schedule: %s\n", what.c_str());
  }
  analyze::AnalyzeOptions aopts;
  aopts.max_link_load = o.max_link_load;
  aopts.max_qpi_bytes = o.max_qpi_bytes;
  return analyze::analyze(rec, machine, spec.contract(p, buf_blocks, oldrank),
                          aopts);
}

int cmd_certify(int argc, char** argv) {
  Options o;
  parse_options(argc, argv, o);
  if (o.collective.empty()) usage();
  const Spec* spec = nullptr;
  for (const auto& s : specs())
    if (o.collective == s.name) spec = &s;
  if (spec == nullptr) throw Error("unknown collective: " + o.collective);
  const topology::Machine machine = topology::Machine::gpc(o.nodes);
  const analyze::Certificate cert = certify_spec(*spec, o, machine);
  std::fputs(cert.format().c_str(), stdout);
  return cert.certified ? 0 : 1;
}

int cmd_certify_all(int argc, char** argv) {
  Options o;
  parse_options(argc, argv, o);
  if (!o.mutate.empty())
    throw Error("--mutate applies to a single `certify` run");
  const topology::Machine machine = topology::Machine::gpc(o.nodes);
  int rejected = 0;
  for (const auto& spec : specs()) {
    const analyze::Certificate cert = certify_spec(spec, o, machine);
    std::printf("%-26s %s (%d stages, %d copies)\n", spec.name,
                cert.certified ? "CERTIFIED" : "REJECTED",
                cert.stages_checked, cert.copies_checked);
    if (!cert.certified) {
      std::fputs(cert.format().c_str(), stdout);
      ++rejected;
    }
  }
  if (rejected > 0)
    std::printf("%d schedule(s) REJECTED\n", rejected);
  return rejected > 0 ? 1 : 0;
}

int cmd_list() {
  for (const auto& spec : specs()) std::printf("%s\n", spec.name);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  try {
    if (!std::strcmp(argv[1], "certify")) return cmd_certify(argc, argv);
    if (!std::strcmp(argv[1], "certify-all"))
      return cmd_certify_all(argc, argv);
    if (!std::strcmp(argv[1], "list")) return cmd_list();
    usage();
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "tarr-analyze: %s\n", e.what());
    usage();  // exits 2
  } catch (const Error& e) {
    std::fprintf(stderr, "tarr-analyze: %s\n", e.what());
    return 1;
  }
}
