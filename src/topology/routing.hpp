#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "topology/network.hpp"

/// \file routing.hpp
/// Deterministic destination-based routing over a SwitchGraph, modeling the
/// static LFT routing of InfiniBand fabrics.
///
/// For every (src node, dst node) pair the router selects one shortest path.
/// At each hop, the outgoing link is chosen among the shortest-path
/// candidates by a deterministic function of (destination, current switch) —
/// the same flavor of spreading as D-mod-K / ftree routing: traffic to
/// different destinations fans out across parallel uplinks, while all traffic
/// to one destination follows a fixed path (so two flows to the same place
/// genuinely contend, which is what produces the paper's congestion effects).
///
/// Because the choice depends only on (destination, current vertex), the
/// routes toward one destination form a tree: the InfiniBand linear
/// forwarding table (LFT) column of that destination.  Construction builds
/// it directly, one pass per destination over a CSR copy of the adjacency:
/// a BFS gives every vertex its level, every reached vertex picks one
/// downhill link (the hashed pick among its downhill links in incident()
/// order), and each source's path is written by following those next hops
/// into one flat destination-major array of directed hops (HopId, link and
/// direction in one int, fixed when the CSR entry is made), so pricing a
/// route is a plain gather over its span.  A first BFS-only sweep sums the
/// route lengths (a source's level is its hop count), so that array is
/// allocated once at its exact size.  O(H * (V + L)) plus the total path
/// length, with no per-pair temporaries.
///
/// Failover: constructing a Router over a degraded graph (links or switches
/// removed, see fault::FaultMask) automatically reroutes every pair onto the
/// next-shortest surviving paths with the same deterministic spreading.  When
/// failures disconnect hosts, the outcome is *structured*: the component
/// decomposition is reported through Partitioned / PartitionedError rather
/// than undefined behavior or an unexplained crash.

namespace tarr::topology {

/// Structured description of a host partition: the connected components of
/// the host set (as compute-node ids), each sorted ascending, ordered by
/// their smallest member.  One component means all hosts are mutually
/// reachable.
struct Partitioned {
  std::vector<std::vector<NodeId>> components;

  /// "hosts split into k components: [0 1 4] [2 3] ..." (components and
  /// members elided past a small prefix to keep messages bounded).
  std::string describe() const;
};

/// Thrown when an operation requires host connectivity that the (possibly
/// degraded) graph no longer provides.  Carries the full component
/// decomposition so callers can react structurally — shrink to the largest
/// component, remap, or abort — instead of parsing an error string.
class PartitionedError : public Error {
 public:
  explicit PartitionedError(Partitioned info);
  const Partitioned& info() const { return info_; }

 private:
  Partitioned info_;
};

/// Connected components of g's hosts (see Partitioned).  A host with no
/// surviving link forms a singleton component.
Partitioned host_components(const SwitchGraph& g);

/// Precomputed all-pairs single-path routes between host endpoints.
class Router {
 public:
  /// What to do when the graph's hosts are not mutually connected.
  enum class HostPolicy {
    RequireAll,        ///< throw PartitionedError at construction
    AllowUnreachable,  ///< build; path()/hops() on a split pair throw
  };

  /// Builds routes for every ordered pair of hosts in `g`.  With the default
  /// policy the graph must be connected across all hosts or construction
  /// throws PartitionedError; with AllowUnreachable the router is built for
  /// whatever connectivity survives (degraded-fabric routing) and
  /// reachable() reports per-pair status.  The referenced graph must outlive
  /// the router.
  explicit Router(const SwitchGraph& g,
                  HostPolicy policy = HostPolicy::RequireAll);

  /// The sequence of directed hops from host(src) to host(dst); empty iff
  /// src == dst.  hop_link() and hop_dir() decode each one.  Throws
  /// PartitionedError if the pair is not reachable.
  std::span<const HopId> path(NodeId src, NodeId dst) const;

  /// Number of links on the route (0 iff src == dst).  Throws
  /// PartitionedError if the pair is not reachable.
  int hops(NodeId src, NodeId dst) const;

  /// True iff src and dst lie in the same surviving component (always true
  /// for src == dst).
  bool reachable(NodeId src, NodeId dst) const;

  /// True iff every host pair is routable.
  bool fully_connected() const { return components_.components.size() <= 1; }

  /// The host component decomposition this router was built over.
  const Partitioned& partition() const { return components_; }

  /// The network this router was built for.
  const SwitchGraph& graph() const { return *graph_; }

 private:
  const SwitchGraph* graph_;
  int num_hosts_;
  /// Flattened destination-major storage: the path src -> dst is
  /// hops_[offset_[dst*H+src] .. offset_[dst*H+src+1]).  64-bit offsets:
  /// the total path length passes 2^31 near 23k hosts.
  std::vector<std::size_t> offset_;
  std::vector<HopId> hops_;
  Partitioned components_;
  std::vector<int> component_of_;  // host node -> component index
};

}  // namespace tarr::topology
