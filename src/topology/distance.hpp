#pragma once

#include <string>
#include <vector>

#include "topology/intranode.hpp"
#include "topology/machine.hpp"

/// \file distance.hpp
/// Physical distance extraction — the hwloc + InfiniBand-tools substitute.
///
/// The paper extracts core-to-core distances once (intra-node via hwloc,
/// inter-node via IB tools), saves them, and feeds only this matrix to the
/// mapping heuristics.  This module reproduces that contract: a symmetric
/// core x core matrix where intra-socket < cross-socket < any network
/// distance, and network distance grows with switch hops.
///
/// On a degraded machine (fault::DegradedTopology, AllowUnreachable router)
/// the extraction still succeeds: pairs of nodes with no surviving route are
/// priced at +infinity, so every mapping heuristic transparently consumes
/// the degraded topology and steers traffic away from the cut.

namespace tarr::topology {

/// Weights used to combine intra-node logical distances with network hop
/// counts into one scale.  Defaults keep every inter-node distance strictly
/// larger than every intra-node one (the property the heuristics rely on).
struct DistanceConfig {
  float same_core = 0.0f;
  /// Same socket, same L3 complex (the only intra-socket level on the
  /// paper's flat-socket nodes).
  float same_socket = 1.0f;
  /// Same socket, different L3 complex (deep NodeShapes only).
  float cross_complex = 1.5f;
  float cross_socket = 2.0f;
  /// Inter-node distance = inter_node_base + per_hop * (switch hops).
  float inter_node_base = 10.0f;
  float per_hop = 5.0f;
};

/// Weight of one intra-node locality level under `cfg` (the scale shared by
/// extract_distances and tarr::probe's inferred matrices).
float intra_level_weight(const DistanceConfig& cfg, IntraLevel level);

/// Dense symmetric core-to-core distance matrix.
class DistanceMatrix {
 public:
  DistanceMatrix(int n, float fill = 0.0f);

  int size() const { return n_; }
  float at(CoreId a, CoreId b) const { return d_[idx(a, b)]; }
  /// Sets d(a,b) and d(b,a).  Clears the range-ultrametric flag.
  void set(CoreId a, CoreId b, float v) {
    d_[idx(a, b)] = v;
    d_[idx(b, a)] = v;
    range_ultrametric_ = false;
  }

  /// Row view (distance from core a to every core).
  const float* row(CoreId a) const { return d_.data() + idx(a, 0); }

  /// True when the matrix was observed to be range-ultrametric (see
  /// is_range_ultrametric).  The extract_* functions and load() set it,
  /// set() clears it.  The mapping heuristics use it to take their
  /// O(log p) nearest-slot search.
  bool range_ultrametric() const { return range_ultrametric_; }

  /// Record the verdict of the direct check (is_range_ultrametric) in the
  /// flag.  O(n^2); extract_distances uses a factored check instead.
  void detect_range_ultrametric();

  /// Persist the matrix to a binary file.  The paper assumes distances are
  /// "extracted once, and saved for future references"; this is the saving
  /// half.  Throws tarr::Error on I/O failure.
  void save(const std::string& path) const;

  /// Load a matrix previously written by save().  Checks the header against
  /// the file length before allocating; throws tarr::Error on a mismatch or
  /// I/O failure.  Re-derives the range-ultrametric flag by the direct check.
  static DistanceMatrix load(const std::string& path);

 private:
  friend DistanceMatrix extract_distances(const Machine& m,
                                          const DistanceConfig& cfg);
  friend DistanceMatrix extract_node_distances(const Machine& m,
                                               const DistanceConfig& cfg);
  std::size_t idx(CoreId a, CoreId b) const {
    return static_cast<std::size_t>(a) * n_ + b;
  }
  int n_;
  std::vector<float> d_;
  bool range_ultrametric_ = false;
};

/// The direct O(n^2) range-ultrametric check: every entry is finite,
/// d(a,a) = 0, and d(a,b) = d(b,a) = max over a <= s < b of d(s,s+1) for
/// every a < b.  Cores numbered node-major, nodes leaf-major and leaves
/// line-major make the fat-tree, single-switch and deep-node matrices
/// range-ultrametric; torus, dragonfly and probed matrices are not.
bool is_range_ultrametric(const DistanceMatrix& d);

/// Extract the full distance matrix of `m` (the operation the paper times in
/// Fig 7a; it is intended to run once and be cached by the caller).
DistanceMatrix extract_distances(const Machine& m,
                                 const DistanceConfig& cfg = DistanceConfig{});

/// Node-to-node distance matrix (used when reordering a leader communicator
/// in the hierarchical path: one "core" per node at the network level).
/// Distance = inter_node_base + per_hop * hops, 0 on the diagonal.
DistanceMatrix extract_node_distances(
    const Machine& m, const DistanceConfig& cfg = DistanceConfig{});

/// Intra-node core distance matrix for one node of `m` (used when reordering
/// the per-node communicators in the hierarchical path).
DistanceMatrix extract_intranode_distances(
    const Machine& m, const DistanceConfig& cfg = DistanceConfig{});

}  // namespace tarr::topology
