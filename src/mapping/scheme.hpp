#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/distance.hpp"

/// \file scheme.hpp
/// Shared machinery of Algorithm 1, the general scheme behind every
/// fine-tuned heuristic:
///
///   1  fix rank 0 on its current slot, choose it as the reference;
///   3  while processes remain:
///   4    select the next process               (pattern-specific)
///   5    find the free slot closest to the reference (ties broken randomly)
///   6    map the process onto it
///   7    update the reference if necessary     (pattern-specific)
///
/// MappingState implements steps 1, 5 and 6 plus the bookkeeping; each
/// heuristic supplies its own process-selection and reference-update policy.
///
/// Step 5 has one tie rule and two search paths.  With `ties` equally close
/// free slots, k = rng.next_below(ties) is drawn once (no draw when ties is
/// 1) and the k-th tied slot in ascending slot-id order is chosen.  On a
/// range-ultrametric matrix (topology::DistanceMatrix::range_ultrametric)
/// the search costs O(log p): a Fenwick tree of free slots plus a sparse
/// table of adjacent-distance maxima.  Any other matrix takes a two-pass
/// scan over the ascending free slots.  Both paths pick the same slot.

namespace tarr::mapping {

/// Mutable state of one run of Algorithm 1.
class MappingState {
 public:
  /// `rank_to_slot` is the initial assignment; `d` the slot distances.
  /// Fixes rank 0 on its current slot immediately (step 1).
  MappingState(const std::vector<int>& rank_to_slot,
               const topology::DistanceMatrix& d, Rng& rng);

  int num_ranks() const { return p_; }
  int num_mapped() const { return mapped_; }
  bool done() const { return mapped_ == p_; }

  /// True iff `rank` has already been assigned a slot.
  bool is_mapped(Rank rank) const;

  /// Slot assigned to a mapped rank.
  int slot_of(Rank rank) const;

  /// Step 5: the free slot with minimum distance from the slot of
  /// `ref_rank` (which must be mapped); ties are broken uniformly at random
  /// by the rule above.
  int find_closest_to(Rank ref_rank);

  /// Step 6: assign `rank` (not yet mapped) to `slot` (currently free).
  void assign(Rank rank, int slot);

  /// Convenience for the common "map `rank` next to `ref_rank`" step.
  void map_close_to(Rank rank, Rank ref_rank);

  /// Lowest-numbered rank that is not mapped yet (kNoRank if none) — used as
  /// a robustness fallback when a pattern's selection rule runs out of
  /// candidates before every process is mapped.
  Rank first_unmapped() const;

  /// Final result M[new_rank] = slot.  Valid once done().
  std::vector<int> result() const;

 private:
  /// Position of `slot` in slots_, or -1 if it is not one of the job's.
  int position_of(int slot) const;
  /// Step 5 as a position in slots_.
  int nearest_position(Rank ref_rank);
  /// Step 6 for the slot at position `pos`.
  void place(Rank rank, int pos);
  /// Tree path: free positions below `pos` (a Fenwick prefix sum).
  int free_below(int pos, std::uint64_t& steps) const;
  /// Tree path: position of the free slot with 0-based ascending index `k`.
  int select_free(int k, std::uint64_t& steps) const;
  /// Tree path of step 5 around the reference at position `ref_pos`;
  /// returns the chosen position and sets `ties`.
  int pick_by_tree(int ref_pos, int& ties, std::uint64_t& steps);
  /// The tie rule's draw: k in [0, ties), no RNG use when ties == 1.
  int draw_tie(int ties);

  int p_;
  const topology::DistanceMatrix* d_;
  Rng* rng_;
  bool by_tree_;                    // d_ is range-ultrametric
  std::vector<int> assignment_;     // new_rank -> position or -1
  std::vector<int> slots_;          // the job's slots, ascending
  std::vector<char> free_at_;       // position in slots_ -> still free
  std::vector<int> free_;           // scan path: free slots, ascending
  std::vector<int> tree_;           // tree path: Fenwick counts, 1-based
  int tree_top_ = 0;                // largest power of two <= p_
  std::vector<float> span_max_;     // tree path: sparse table, see .cpp
  int mapped_ = 0;
};

/// st.result() plus, in TARR_SLOW_CHECKS builds, a bijectivity re-check of
/// the heuristic's own output against the initial assignment (see
/// check/mapping_verifier.hpp).  Every heuristic returns through this.
std::vector<int> finish_mapping(const MappingState& st,
                                const std::string& mapper,
                                const std::vector<int>& rank_to_slot);

}  // namespace tarr::mapping
