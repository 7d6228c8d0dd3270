#include "topology/distance.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "fault/degraded.hpp"
#include "probe/measure.hpp"
#include "topology/direct.hpp"
#include "topology/fattree.hpp"

namespace tarr::topology {
namespace {

class DistanceOnMachines : public ::testing::TestWithParam<int> {
 protected:
  Machine machine() const { return Machine::gpc(GetParam()); }
};

TEST_P(DistanceOnMachines, SymmetricWithZeroDiagonal) {
  const Machine m = machine();
  const DistanceMatrix d = extract_distances(m);
  ASSERT_EQ(d.size(), m.total_cores());
  for (CoreId a = 0; a < d.size(); a += 3) {
    EXPECT_EQ(d.at(a, a), 0.0f);
    for (CoreId b = 0; b < d.size(); b += 5) {
      EXPECT_EQ(d.at(a, b), d.at(b, a));
    }
  }
}

TEST_P(DistanceOnMachines, ChannelHierarchyOrdering) {
  // The property every heuristic relies on: same socket < cross socket <
  // any inter-node distance.
  const Machine m = machine();
  const DistanceMatrix d = extract_distances(m);
  const float same_socket = d.at(0, 1);
  const float cross_socket = d.at(0, 4);
  EXPECT_LT(same_socket, cross_socket);
  if (m.num_nodes() > 1) {
    const float inter = d.at(0, m.cores_per_node());
    EXPECT_LT(cross_socket, inter);
  }
}

TEST_P(DistanceOnMachines, InterNodeGrowsWithHops) {
  const Machine m = machine();
  if (m.num_nodes() <= 30) return;  // needs at least two leaves
  const DistanceMatrix d = extract_distances(m);
  const int cpn = m.cores_per_node();
  const float same_leaf = d.at(0, 1 * cpn);
  const float cross_leaf = d.at(0, 30 * cpn);
  EXPECT_LT(same_leaf, cross_leaf);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistanceOnMachines,
                         ::testing::Values(1, 2, 8, 31, 64));

TEST(Distance, ConfigWeightsApplied) {
  const Machine m = Machine::gpc(2);
  DistanceConfig cfg;
  cfg.same_socket = 3.0f;
  cfg.cross_socket = 7.0f;
  cfg.inter_node_base = 100.0f;
  cfg.per_hop = 1.0f;
  const DistanceMatrix d = extract_distances(m, cfg);
  EXPECT_EQ(d.at(0, 1), 3.0f);
  EXPECT_EQ(d.at(0, 5), 7.0f);
  EXPECT_EQ(d.at(0, 8), 100.0f + 2.0f);  // same leaf = 2 hops
}

TEST(Distance, NodeDistances) {
  const Machine m = Machine::gpc(60);
  const DistanceMatrix d = extract_node_distances(m);
  ASSERT_EQ(d.size(), 60);
  EXPECT_EQ(d.at(3, 3), 0.0f);
  EXPECT_GT(d.at(0, 1), 0.0f);
  // Same-leaf nodes are closer than cross-leaf nodes.
  EXPECT_LT(d.at(0, 29), d.at(0, 30));
}

TEST(Distance, IntranodeDistances) {
  const Machine m = Machine::gpc(1);
  const DistanceMatrix d = extract_intranode_distances(m);
  ASSERT_EQ(d.size(), 8);
  EXPECT_EQ(d.at(0, 0), 0.0f);
  EXPECT_LT(d.at(0, 3), d.at(0, 4));
  EXPECT_EQ(d.at(1, 2), d.at(2, 1));
}

TEST(Distance, MatrixSetAndRow) {
  DistanceMatrix d(3, 1.0f);
  d.set(0, 2, 5.0f);
  EXPECT_EQ(d.at(0, 2), 5.0f);
  EXPECT_EQ(d.at(2, 0), 5.0f);
  const float* row = d.row(0);
  EXPECT_EQ(row[2], 5.0f);
  EXPECT_EQ(row[1], 1.0f);
}

// ---------------------------------------------------------------------------
// Range-ultrametric detection.

/// d(a,b) = max of adj[a..b-1]: range-ultrametric by construction.
DistanceMatrix from_adjacent(const std::vector<float>& adj) {
  const int n = static_cast<int>(adj.size()) + 1;
  DistanceMatrix d(n);
  for (int a = 0; a < n; ++a) {
    float run = 0.0f;
    for (int b = a + 1; b < n; ++b) {
      run = std::max(run, adj[b - 1]);
      d.set(a, b, run);
    }
  }
  return d;
}

TEST(RangeUltrametric, DirectCheckAcceptsMaxOfAdjacent) {
  EXPECT_TRUE(is_range_ultrametric(from_adjacent({1, 1, 2, 1, 3, 1, 2})));
  EXPECT_TRUE(is_range_ultrametric(from_adjacent({})));  // 1x1
  EXPECT_TRUE(is_range_ultrametric(DistanceMatrix(5, 0.0f)));
}

TEST(RangeUltrametric, DirectCheckRejectsViolations) {
  // A line metric grows with the gap, not with the largest step.
  DistanceMatrix line(4);
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) line.set(a, b, static_cast<float>(b - a));
  EXPECT_FALSE(is_range_ultrametric(line));

  EXPECT_FALSE(is_range_ultrametric(DistanceMatrix(3, 1.0f)));  // d(a,a)=1

  DistanceMatrix too_close = from_adjacent({1, 2, 1});
  too_close.set(0, 2, 1.0f);  // below the step it crosses
  EXPECT_FALSE(is_range_ultrametric(too_close));

  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(is_range_ultrametric(from_adjacent({1, inf, 1})));
  DistanceMatrix nan = from_adjacent({1, 1, 1});
  nan.set(0, 2, std::numeric_limits<float>::quiet_NaN());
  EXPECT_FALSE(is_range_ultrametric(nan));
}

TEST(RangeUltrametric, SetClearsTheFlag) {
  DistanceMatrix d = from_adjacent({1, 2, 1});
  EXPECT_FALSE(d.range_ultrametric());  // built with set(): never flagged
  d.detect_range_ultrametric();
  EXPECT_TRUE(d.range_ultrametric());
  d.set(0, 1, d.at(0, 1));  // even a no-op edit clears it
  EXPECT_FALSE(d.range_ultrametric());
  EXPECT_TRUE(is_range_ultrametric(d));

  DistanceMatrix g = extract_distances(Machine::gpc(2));
  ASSERT_TRUE(g.range_ultrametric());
  g.set(0, 0, 0.0f);
  EXPECT_FALSE(g.range_ultrametric());
}

/// The factored check in extract_distances must agree with the direct one.
void expect_flag_matches_direct(const Machine& m, bool expected,
                                const char* what) {
  const DistanceMatrix d = extract_distances(m);
  EXPECT_EQ(d.range_ultrametric(), expected) << what;
  EXPECT_EQ(is_range_ultrametric(d), expected) << what;
  const DistanceMatrix node = extract_node_distances(m);
  if (expected) {
    EXPECT_TRUE(node.range_ultrametric()) << what;
  }
  EXPECT_EQ(node.range_ultrametric(), is_range_ultrametric(node)) << what;
  EXPECT_TRUE(extract_intranode_distances(m).range_ultrametric()) << what;
}

TEST(RangeUltrametric, FatTreesAndCrossbarsAreDetected) {
  for (int nodes : {1, 2, 16, 31, 64, 128})
    expect_flag_matches_direct(Machine::gpc(nodes), true, "gpc");
  expect_flag_matches_direct(Machine::gpc(8, NodeShape{2, 16, 4}), true,
                             "gpc deep-node");
  expect_flag_matches_direct(
      Machine(NodeShape{}, build_two_level_fattree(16, 4, 2)), true,
      "two-level fat-tree");
  expect_flag_matches_direct(Machine::single_switch(8), true, "crossbar");
}

TEST(RangeUltrametric, DirectNetworksAreNot) {
  expect_flag_matches_direct(Machine(NodeShape{}, build_torus_network(4, 4, 1)),
                             false, "torus");
  expect_flag_matches_direct(Machine(NodeShape{}, build_dragonfly_network(36)),
                             false, "dragonfly");
}

TEST(RangeUltrametric, IntraTemplateAboveInterNodeIsNot) {
  // The factored check's third condition: an intra distance larger than an
  // inter-node one breaks the max-of-adjacent structure across nodes.
  DistanceConfig cfg;
  cfg.cross_socket = 50.0f;
  const DistanceMatrix d = extract_distances(Machine::gpc(4), cfg);
  EXPECT_FALSE(d.range_ultrametric());
  EXPECT_FALSE(is_range_ultrametric(d));
}

TEST(RangeUltrametric, PartitionedAndProbedMatricesAreNot) {
  topology::GpcTreeConfig tree;
  tree.num_leaves = 2;
  tree.nodes_per_leaf = 4;
  tree.lines_per_core = 2;
  tree.spines_per_core = 2;
  tree.leaves_per_line = 1;
  const Machine base(NodeShape{.sockets = 1, .cores_per_socket = 2},
                     build_gpc_network(8, tree));
  fault::FaultMask mask;
  const SwitchGraph& g = base.network();
  for (NetVertexId v = 0; v < g.num_vertices(); ++v)
    if (g.vertex(v).kind == VertexKind::SpineSwitch) mask.fail_switch(v);
  const fault::DegradedTopology cut(base, std::move(mask));
  const DistanceMatrix d = cut.distances();
  ASSERT_EQ(d.at(0, 8), std::numeric_limits<float>::infinity());
  EXPECT_FALSE(d.range_ultrametric());
  EXPECT_FALSE(cut.node_distances().range_ultrametric());

  probe::ProbeConfig cfg;
  cfg.noise = 0.0;
  cfg.outlier_prob = 0.0;
  const probe::ProbedDistances probed =
      probe::probe_distances(base, extract_node_distances(base), cfg);
  EXPECT_FALSE(probed.core.range_ultrametric());
  EXPECT_FALSE(probed.node.range_ultrametric());
}

// ---------------------------------------------------------------------------
// The on-disk format.

std::string temp_file(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(DistanceIo, LoadRestoresTheFlagByTheDirectCheck) {
  const std::string path = temp_file("tarr_ru.bin");
  extract_distances(Machine::gpc(2)).save(path);
  EXPECT_TRUE(DistanceMatrix::load(path).range_ultrametric());
  DistanceMatrix line(3);
  line.set(0, 1, 1.0f);
  line.set(1, 2, 1.0f);
  line.set(0, 2, 2.0f);
  line.save(path);
  EXPECT_FALSE(DistanceMatrix::load(path).range_ultrametric());
  std::remove(path.c_str());
}

TEST(DistanceIo, LoadChecksTheHeaderSizeBeforeAllocating) {
  // A bare 12-byte header claiming 65535 x 65535 cells (16 GiB of floats).
  const std::string path = temp_file("tarr_huge_header.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t header[3] = {0x74615244u, 1u, 65535u};
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, f), 1u);
    std::fclose(f);
  }
  try {
    (void)DistanceMatrix::load(path);
    ADD_FAILURE() << "load accepted a header larger than its file";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("header claims 65535x65535"),
              std::string::npos)
        << e.what();
  }
  // A payload one float longer than the header says is rejected too.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t header[3] = {0x74615244u, 1u, 1u};
    const float cells[2] = {0.0f, 0.0f};
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, f), 1u);
    ASSERT_EQ(std::fwrite(cells, sizeof(cells), 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_THROW(DistanceMatrix::load(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tarr::topology
