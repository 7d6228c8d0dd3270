// Differential tests: the Router's per-destination next-hop build and
// extract_distances' row-order fill against test-only references that
// compute the same answers the direct way — a per-(src, dst) walk down the
// BFS gradient for routes, and a set() loop over every core pair for
// distances.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/degraded.hpp"
#include "topology/direct.hpp"
#include "topology/distance.hpp"
#include "topology/fattree.hpp"
#include "topology/machine.hpp"

namespace tarr::topology {
namespace {

/// Same spreading hash as the router (destination-based forwarding).
std::uint32_t reference_hash(NodeId dst, NetVertexId at) {
  std::uint32_t h = static_cast<std::uint32_t>(dst) * 0x9e3779b9u;
  h ^= static_cast<std::uint32_t>(at) * 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

/// The reference routes: one BFS per destination over g's incident lists,
/// then, for every source separately, a walk down the level gradient that
/// at each vertex collects the downhill links and takes the hashed one,
/// recorded as the hop (link, direction of travel) the walk makes.  A pair
/// the BFS does not connect has no route (std::nullopt).
class ReferenceRoutes {
 public:
  explicit ReferenceRoutes(const SwitchGraph& g) : h_(g.num_hosts()) {
    constexpr int kUnreached = std::numeric_limits<int>::max();
    paths_.resize(static_cast<std::size_t>(h_) * h_);
    std::vector<int> level(g.num_vertices());
    std::vector<NetVertexId> queue;
    for (NodeId dst = 0; dst < h_; ++dst) {
      std::fill(level.begin(), level.end(), kUnreached);
      const NetVertexId target = g.host_vertex(dst);
      level[target] = 0;
      queue.assign(1, target);
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const NetVertexId u = queue[head];
        for (LinkId l : g.incident(u)) {
          const NetVertexId w = g.other_end(l, u);
          if (level[w] == kUnreached) {
            level[w] = level[u] + 1;
            queue.push_back(w);
          }
        }
      }
      for (NodeId src = 0; src < h_; ++src) {
        NetVertexId at = g.host_vertex(src);
        if (level[at] == kUnreached) continue;
        std::vector<HopId> path;
        while (at != target) {
          std::vector<LinkId> downhill;
          for (LinkId l : g.incident(at))
            if (level[g.other_end(l, at)] == level[at] - 1)
              downhill.push_back(l);
          const LinkId chosen =
              downhill[reference_hash(dst, at) %
                       static_cast<std::uint32_t>(downhill.size())];
          const int dir = g.link(chosen).a == at ? 0 : 1;
          path.push_back(2 * chosen + dir);
          at = g.other_end(chosen, at);
        }
        paths_[static_cast<std::size_t>(src) * h_ + dst] = std::move(path);
      }
    }
  }

  const std::optional<std::vector<HopId>>& path(NodeId src,
                                                NodeId dst) const {
    return paths_[static_cast<std::size_t>(src) * h_ + dst];
  }

 private:
  int h_;
  std::vector<std::optional<std::vector<HopId>>> paths_;
};

/// Every path() and reachable() of `r` must equal the reference, hop for
/// hop in link and direction; a pair with no reference route must throw
/// PartitionedError.
void expect_routes_match(const Router& r, const std::string& what) {
  const SwitchGraph& g = r.graph();
  const ReferenceRoutes ref(g);
  int mismatches = 0;
  for (NodeId src = 0; src < g.num_hosts(); ++src) {
    for (NodeId dst = 0; dst < g.num_hosts(); ++dst) {
      const auto& want = ref.path(src, dst);
      ASSERT_EQ(r.reachable(src, dst), want.has_value())
          << what << ": " << src << " -> " << dst;
      if (!want) {
        EXPECT_THROW(r.path(src, dst), PartitionedError) << what;
        continue;
      }
      const auto got = r.path(src, dst);
      if (!std::equal(got.begin(), got.end(), want->begin(), want->end()) &&
          ++mismatches <= 5)
        ADD_FAILURE() << what << ": route " << src << " -> " << dst
                      << " differs from the reference walk";
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
}

TEST(RouteOracle, PristineMachinesMatchThePerPairWalk) {
  for (int nodes : {16, 128, 512})
    expect_routes_match(Router(build_gpc_network(nodes)),
                        "gpc " + std::to_string(nodes));
  expect_routes_match(Router(build_two_level_fattree(64, 8, 4)),
                      "two-level fat-tree");
  expect_routes_match(Router(build_single_switch_network(16)), "crossbar");
  expect_routes_match(Router(build_torus_network(4, 4, 4)), "torus 4x4x4");
  expect_routes_match(Router(build_dragonfly_network(64)), "dragonfly 64");
}

/// Every switch vertex of g.
std::vector<NetVertexId> switches_of(const SwitchGraph& g) {
  std::vector<NetVertexId> out;
  for (NetVertexId v = 0; v < g.num_vertices(); ++v)
    if (g.vertex(v).kind != VertexKind::Host) out.push_back(v);
  return out;
}

TEST(RouteOracle, RandomLinkFailuresMatchThePerPairWalk) {
  const SwitchGraph gpc = build_gpc_network(128);
  const SwitchGraph torus = build_torus_network(4, 4, 2);
  const SwitchGraph dragonfly = build_dragonfly_network(48);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    for (const SwitchGraph* g : {&gpc, &torus, &dragonfly}) {
      const int k = 1 + static_cast<int>(rng.next_below(12));
      const SwitchGraph cut =
          fault::FaultMask::random_links(*g, k, rng).apply(*g);
      expect_routes_match(Router(cut, Router::HostPolicy::AllowUnreachable),
                          "seed " + std::to_string(seed) + ", " +
                              std::to_string(k) + " links cut");
    }
  }
}

TEST(RouteOracle, SwitchFailuresAndPartitionsMatchThePerPairWalk) {
  const SwitchGraph gpc = build_gpc_network(128);
  const std::vector<NetVertexId> sw = switches_of(gpc);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(100 + seed);
    fault::FaultMask mask;
    const int k = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < k; ++i)
      mask.fail_switch(sw[rng.next_below(sw.size())]);
    const SwitchGraph cut = mask.apply(gpc);
    const Router r(cut, Router::HostPolicy::AllowUnreachable);
    expect_routes_match(r, "seed " + std::to_string(seed) + ", " +
                               std::to_string(k) + " switches failed");
  }
  // A failed leaf switch cuts its 30 hosts off: a real partition, where
  // reachable() must report every split pair and path() must throw.
  fault::FaultMask leaf;
  for (NetVertexId v : sw)
    if (gpc.vertex(v).kind == VertexKind::LeafSwitch) {
      leaf.fail_switch(v);
      break;
    }
  const SwitchGraph cut = leaf.apply(gpc);
  const Router split(cut, Router::HostPolicy::AllowUnreachable);
  ASSERT_FALSE(split.fully_connected());
  expect_routes_match(split, "failed leaf switch");
}

// ---------------------------------------------------------------------------
// Distances: extract_distances against a set() loop over every core pair,
// priced from the reference routes, flag from the direct check.

DistanceMatrix reference_distances(const Machine& m,
                                   const DistanceConfig& cfg) {
  const ReferenceRoutes routes(m.network());
  const int cpn = m.cores_per_node();
  DistanceMatrix d(m.total_cores());
  for (CoreId a = 0; a < m.total_cores(); ++a) {
    for (CoreId b = a + 1; b < m.total_cores(); ++b) {
      const NodeId na = a / cpn, nb = b / cpn;
      float v;
      if (na == nb) {
        v = intra_level_weight(cfg,
                               intranode_level(m.shape(), a % cpn, b % cpn));
      } else if (const auto& p = routes.path(na, nb)) {
        v = cfg.inter_node_base + cfg.per_hop * static_cast<float>(p->size());
      } else {
        v = std::numeric_limits<float>::infinity();
      }
      d.set(a, b, v);
    }
  }
  d.detect_range_ultrametric();
  return d;
}

void expect_distances_match(const Machine& m, const std::string& what,
                            const DistanceConfig& cfg = {}) {
  const DistanceMatrix got = extract_distances(m, cfg);
  const DistanceMatrix want = reference_distances(m, cfg);
  ASSERT_EQ(got.size(), want.size()) << what;
  const std::size_t bytes =
      static_cast<std::size_t>(got.size()) * got.size() * sizeof(float);
  EXPECT_EQ(std::memcmp(got.row(0), want.row(0), bytes), 0) << what;
  EXPECT_EQ(got.range_ultrametric(), want.range_ultrametric()) << what;
}

TEST(DistanceOracle, ExtractionIsByteIdenticalToTheSetLoop) {
  expect_distances_match(Machine::gpc(1), "gpc 1");
  expect_distances_match(Machine::gpc(64), "gpc 64");
  expect_distances_match(Machine::gpc(8, NodeShape{2, 16, 4}), "deep-node");
  expect_distances_match(Machine(NodeShape{}, build_two_level_fattree(16, 4, 2)),
                         "two-level fat-tree");
  expect_distances_match(Machine::single_switch(8), "crossbar");
  expect_distances_match(Machine(NodeShape{}, build_torus_network(3, 3, 2)),
                         "torus");
  expect_distances_match(Machine(NodeShape{}, build_dragonfly_network(36)),
                         "dragonfly");
  DistanceConfig heavy;
  heavy.cross_socket = 50.0f;  // intra above inter: not range-ultrametric
  expect_distances_match(Machine::gpc(4), "intra above inter", heavy);
}

TEST(DistanceOracle, DegradedExtractionIsByteIdenticalToTheSetLoop) {
  const Machine base = Machine::gpc(64);
  const std::vector<NetVertexId> sw = switches_of(base.network());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const fault::DegradedTopology links(
        base, fault::FaultMask::random_links(base.network(), 4, rng));
    expect_distances_match(links.machine(),
                           "links cut, seed " + std::to_string(seed));
  }
  // A failed leaf switch prices its hosts at +infinity from everyone else.
  fault::FaultMask leaf;
  for (NetVertexId v : sw)
    if (base.network().vertex(v).kind == VertexKind::LeafSwitch) {
      leaf.fail_switch(v);
      break;
    }
  const fault::DegradedTopology split(base, std::move(leaf));
  ASSERT_FALSE(split.machine().router().fully_connected());
  expect_distances_match(split.machine(), "failed leaf switch");
}

}  // namespace
}  // namespace tarr::topology
