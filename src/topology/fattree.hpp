#pragma once

#include "topology/network.hpp"

/// \file fattree.hpp
/// Builders for the network topologies used in the evaluation.
///
/// `build_gpc_network` reconstructs the exact topology of the GPC cluster at
/// SciNet as described in the paper (Fig 2): leaf switches each serving 30
/// compute nodes with 3 uplinks to each of two core switches (5:1 blocking),
/// where each core switch is internally a 2-level fat-tree of 18 line and 9
/// spine switches (each line switch serves 6 leaf uplink bundles and has 2
/// uplinks to each spine).

namespace tarr::topology {

/// Parameters of a GPC-style two-tier blocking fat-tree.
struct GpcTreeConfig {
  int num_leaves = 32;          ///< leaf switches
  int nodes_per_leaf = 30;      ///< compute nodes per leaf switch
  int num_cores = 2;            ///< core "switches" (each a 2-level tree)
  int uplinks_per_core = 3;     ///< cables from each leaf to each core switch
  int lines_per_core = 18;      ///< line switches inside each core switch
  int spines_per_core = 9;      ///< spine switches inside each core switch
  int leaves_per_line = 6;      ///< leaf bundles attached to each line switch
  int line_spine_capacity = 2;  ///< cables from each line to each spine
  /// Cables from each compute node to its leaf switch.  The paper's nodes
  /// inject over a single QDR cable (the default); ML-style accelerator
  /// nodes with fat NICs (tarr::probe scenarios) widen this so the
  /// oversubscribed switch fabric — not injection — is the bottleneck.
  int host_link_capacity = 1;

  /// Most compute nodes the tree can attach (960 for the paper's GPC).
  int max_nodes() const { return num_leaves * nodes_per_leaf; }
};

/// Validate a GpcTreeConfig: every count/capacity must be >= 1 and the
/// leaves must fit the per-core line switches.  Throws tarr::Error naming
/// the offending field; build_gpc_network calls this, so a malformed config
/// fails loudly instead of silently misconstructing the fabric.
void validate(const GpcTreeConfig& cfg);

/// Build the paper's GPC network with `num_nodes` compute nodes attached
/// (num_nodes <= num_leaves * nodes_per_leaf).  Nodes are attached to leaves
/// in order, `nodes_per_leaf` consecutive nodes per leaf.
SwitchGraph build_gpc_network(int num_nodes,
                              const GpcTreeConfig& cfg = GpcTreeConfig{});

/// A trivial one-switch (full crossbar) network: every node hangs off a
/// single switch.  Useful as a contention-free control in ablations.
SwitchGraph build_single_switch_network(int num_nodes);

/// A classic two-level fat-tree: `num_leaves` leaf switches, `nodes_per_leaf`
/// nodes each, `num_spines` spine switches, `up_capacity` cables from every
/// leaf to every spine.  Oversubscription = nodes_per_leaf /
/// (num_spines*up_capacity).
SwitchGraph build_two_level_fattree(int num_nodes, int nodes_per_leaf,
                                    int num_spines, int up_capacity = 1);

}  // namespace tarr::topology
