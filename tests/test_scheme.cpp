#include "mapping/scheme.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/error.hpp"
#include "mapping/heuristics.hpp"
#include "prof/profiler.hpp"
#include "simmpi/layout.hpp"
#include "topology/distance.hpp"
#include "topology/fattree.hpp"

namespace tarr::mapping {
namespace {

using topology::DistanceMatrix;

/// A simple line-metric distance matrix over n slots.
DistanceMatrix line_distances(int n) {
  DistanceMatrix d(n);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      d.set(a, b, static_cast<float>(b - a));
  return d;
}

TEST(MappingState, FixesRankZero) {
  const DistanceMatrix d = line_distances(4);
  Rng rng(1);
  MappingState st({2, 0, 1, 3}, d, rng);
  EXPECT_TRUE(st.is_mapped(0));
  EXPECT_EQ(st.slot_of(0), 2);  // rank 0 stays on its current slot
  EXPECT_EQ(st.num_mapped(), 1);
  EXPECT_FALSE(st.done());
}

TEST(MappingState, FindClosestPicksMinimumDistance) {
  const DistanceMatrix d = line_distances(8);
  Rng rng(1);
  MappingState st({3, 0, 1, 7}, d, rng);
  // Free slots are {0, 1, 7}; closest to slot 3 is 1.
  EXPECT_EQ(st.find_closest_to(0), 1);
}

TEST(MappingState, TieBreakIsRandomButValid) {
  // Slots 2 and 4 are equidistant from slot 3.
  const DistanceMatrix d = line_distances(8);
  int picked2 = 0, picked4 = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    MappingState st({3, 2, 4}, d, rng);
    const int s = st.find_closest_to(0);
    EXPECT_TRUE(s == 2 || s == 4);
    (s == 2 ? picked2 : picked4)++;
  }
  EXPECT_GT(picked2, 0);
  EXPECT_GT(picked4, 0);
}

TEST(MappingState, AssignConsumesSlot) {
  const DistanceMatrix d = line_distances(4);
  Rng rng(1);
  MappingState st({0, 1, 2, 3}, d, rng);
  st.assign(2, 1);
  EXPECT_TRUE(st.is_mapped(2));
  EXPECT_EQ(st.slot_of(2), 1);
  EXPECT_THROW(st.assign(3, 1), Error);  // slot already taken
  EXPECT_THROW(st.assign(2, 3), Error);  // rank already mapped
}

TEST(MappingState, MapCloseToWalksOutward) {
  const DistanceMatrix d = line_distances(8);
  Rng rng(1);
  MappingState st({4, 3, 5, 0, 7}, d, rng);
  st.map_close_to(1, 0);  // picks 3 or 5
  st.map_close_to(2, 0);  // picks the other of 3/5
  const int a = st.slot_of(1);
  const int b = st.slot_of(2);
  EXPECT_TRUE((a == 3 && b == 5) || (a == 5 && b == 3));
}

TEST(MappingState, FirstUnmappedAndResult) {
  const DistanceMatrix d = line_distances(3);
  Rng rng(1);
  MappingState st({0, 1, 2}, d, rng);
  EXPECT_EQ(st.first_unmapped(), 1);
  st.assign(1, 1);
  EXPECT_EQ(st.first_unmapped(), 2);
  EXPECT_THROW(st.result(), Error);  // incomplete
  st.assign(2, 2);
  EXPECT_EQ(st.first_unmapped(), kNoRank);
  EXPECT_EQ(st.result(), (std::vector<int>{0, 1, 2}));
}

TEST(MappingState, RejectsBadInput) {
  const DistanceMatrix d = line_distances(4);
  Rng rng(1);
  EXPECT_THROW(MappingState({0, 0}, d, rng), Error);   // duplicate slot
  EXPECT_THROW(MappingState({0, 9}, d, rng), Error);   // outside matrix
  EXPECT_THROW(MappingState({}, d, rng), Error);       // empty
}

// ---------------------------------------------------------------------------
// The two search paths of step 5.

using topology::Machine;

constexpr std::array<Pattern, 5> kPatterns = {
    Pattern::RecursiveDoubling, Pattern::Ring, Pattern::BinomialBcast,
    Pattern::BinomialGather, Pattern::Bruck};

/// d(a,b) = max of adj[a..b-1], flagged range-ultrametric.
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
  d.detect_range_ultrametric();
  return d;
}

/// The same matrix without the flag: the mapper takes the scan path.
DistanceMatrix scan_only(const DistanceMatrix& d) {
  DistanceMatrix copy = d;
  copy.set(0, 0, copy.at(0, 0));
  return copy;
}

/// Every heuristic returns the same mapping, and leaves the RNG in the same
/// state, on the tree path and on the scan path.
void expect_paths_agree(const DistanceMatrix& d,
                        const std::vector<int>& initial,
                        const std::string& what) {
  ASSERT_TRUE(d.range_ultrametric()) << what;
  const DistanceMatrix scan = scan_only(d);
  ASSERT_FALSE(scan.range_ultrametric()) << what;
  for (const Pattern pattern : kPatterns) {
    const auto mapper = make_heuristic(pattern);
    Rng tree_rng(11), scan_rng(11);
    const std::vector<int> by_tree = mapper->checked_map(initial, d, tree_rng);
    const std::vector<int> by_scan =
        mapper->checked_map(initial, scan, scan_rng);
    EXPECT_EQ(by_tree, by_scan) << what << " " << mapper->name();
    EXPECT_EQ(tree_rng.next_u64(), scan_rng.next_u64())
        << what << " " << mapper->name();
  }
}

void expect_paths_agree_on(const Machine& m, const std::string& what) {
  const DistanceMatrix d = topology::extract_distances(m);
  for (const auto& layout : simmpi::all_layouts()) {
    const auto cores = simmpi::make_layout(m, m.total_cores(), layout);
    expect_paths_agree(d, std::vector<int>(cores.begin(), cores.end()),
                       what + " " + simmpi::to_string(layout));
  }
}

TEST(NearestSlot, TreeAndScanAgreeOnGpc) {
  for (int nodes : {16, 64, 128})
    expect_paths_agree_on(Machine::gpc(nodes),
                          "gpc(" + std::to_string(nodes) + ")");
}

TEST(NearestSlot, TreeAndScanAgreeOnOtherRangeUltrametricMachines) {
  expect_paths_agree_on(Machine::gpc(8, topology::NodeShape{2, 16, 4}),
                        "deep-node");
  expect_paths_agree_on(
      Machine(topology::NodeShape{},
              topology::build_two_level_fattree(16, 4, 2)),
      "two-level fat-tree");
  expect_paths_agree_on(Machine::single_switch(8), "crossbar");
}

TEST(NearestSlot, TreeAndScanAgreeOnASubsetCommunicator) {
  // 256 ranks on every other node of a 64-node machine: the job's slots
  // are sparse in the matrix.
  const Machine m = Machine::gpc(64);
  const DistanceMatrix d = topology::extract_distances(m);
  const int cpn = m.cores_per_node();
  for (const auto& layout : simmpi::all_layouts()) {
    std::vector<int> initial;
    for (const CoreId c : simmpi::make_layout(m, 256, layout))
      initial.push_back((c / cpn) * 2 * cpn + c % cpn);
    expect_paths_agree(d, initial,
                       "subset " + simmpi::to_string(layout));
  }
}

TEST(NearestSlot, TiesAreUniformInAscendingOrder) {
  // All eight free slots are at distance 1 from slot 4.
  const DistanceMatrix d = from_adjacent(std::vector<float>(8, 1.0f));
  const DistanceMatrix scan = scan_only(d);
  const std::vector<int> initial = {4, 0, 1, 2, 3, 5, 6, 7, 8};
  std::array<int, 9> picked{};
  for (std::uint64_t seed = 0; seed < 8000; ++seed) {
    Rng rng(seed), scan_rng(seed), draw(seed);
    MappingState tree_st(initial, d, rng);
    MappingState scan_st(initial, scan, scan_rng);
    const int s = tree_st.find_closest_to(0);
    EXPECT_EQ(scan_st.find_closest_to(0), s);
    // One draw picks the k-th free slot in ascending slot order.
    const int k = static_cast<int>(draw.next_below(8));
    EXPECT_EQ(s, k < 4 ? k : k + 1);
    ++picked[s];
  }
  EXPECT_EQ(picked[4], 0);
  for (int s : {0, 1, 2, 3, 5, 6, 7, 8}) {
    EXPECT_GT(picked[s], 850) << "slot " << s;  // 1000 expected, sigma ~30
    EXPECT_LT(picked[s], 1150) << "slot " << s;
  }
}

TEST(NearestSlot, UniqueNearestDrawsNothing) {
  const DistanceMatrix d = from_adjacent({1, 2, 1, 3, 1});
  for (const DistanceMatrix& m : {d, scan_only(d)}) {
    Rng rng(5), untouched(5);
    MappingState st({2, 0, 1, 3, 4, 5}, m, rng);
    // From slot 2: slot 3 at 1 is the only nearest (1 is at 2).
    EXPECT_EQ(st.find_closest_to(0), 3);
    EXPECT_EQ(rng.next_u64(), untouched.next_u64());
  }
}

TEST(NearestSlot, TreeSearchSkipsTakenSlotsAndFarSides) {
  // Steps 1 1 | 5 | 1 1 : two groups of three slots.
  const DistanceMatrix d = from_adjacent({1, 1, 5, 1, 1});
  Rng rng(3);
  MappingState st({1, 0, 2, 3, 4, 5}, d, rng);
  st.assign(1, 0);
  st.assign(2, 2);
  // Slot 1's group is full: the nearest free slots are the whole far group.
  const int s = st.find_closest_to(0);
  EXPECT_TRUE(s >= 3 && s <= 5) << s;
}

TEST(NearestSlot, TreePathWorkIsLogarithmicPerPlacement) {
  const Machine m = Machine::gpc(128);
  const DistanceMatrix d = topology::extract_distances(m);
  const auto cores = simmpi::make_layout(m, 1024, simmpi::all_layouts()[2]);
  const std::vector<int> initial(cores.begin(), cores.end());
  prof::Profiler profiler;
  {
    prof::ScopedThreadProfiler guard(&profiler);
    Rng rng(1);
    (void)make_heuristic(Pattern::RecursiveDoubling)
        ->checked_map(initial, d, rng);
  }
  const double steps = profiler.snapshot().counter_total("mapping.scan_steps");
  EXPECT_GT(steps, 0.0);
  EXPECT_LT(steps, 1023.0 * 100.0);  // the scan touches 1023*1024/2
}

}  // namespace
}  // namespace tarr::mapping
