#include "mapping/scheme.hpp"

#include <algorithm>
#include <bit>

#include "check/mapping_verifier.hpp"
#include "common/error.hpp"
#include "prof/profiler.hpp"
#include "trace/sink.hpp"

namespace tarr::mapping {

namespace {

/// Pass one of the scan: the minimum distance over the ascending `free`
/// slots, how many attain it, and the index of the first that does.
struct Ties {
  float dist;
  int count;
  std::size_t first;
};

Ties scan_ties(const std::vector<int>& free, const float* row,
               std::uint64_t& steps) {
  Ties t{row[free[0]], 1, 0};
  for (std::size_t i = 1; i < free.size(); ++i) {
    const float dist = row[free[i]];
    if (dist < t.dist) {
      t = Ties{dist, 1, i};
    } else if (dist == t.dist) {
      ++t.count;
    }
  }
  steps += free.size();
  return t;
}

/// Pass two: the k-th (0-based) slot of `free` at distance t.dist.
int scan_kth(const std::vector<int>& free, const float* row, const Ties& t,
             int k, std::uint64_t& steps) {
  std::size_t i = t.first;
  for (;; ++i) {
    if (row[free[i]] == t.dist && k-- == 0) break;
  }
  if (t.count > 1) steps += i - t.first + 1;
  return free[i];
}

}  // namespace

MappingState::MappingState(const std::vector<int>& rank_to_slot,
                           const topology::DistanceMatrix& d, Rng& rng)
    : p_(static_cast<int>(rank_to_slot.size())),
      d_(&d),
      rng_(&rng),
      by_tree_(d.range_ultrametric()),
      slots_(rank_to_slot) {
  TARR_REQUIRE(p_ >= 1, "MappingState: empty rank set");
  std::sort(slots_.begin(), slots_.end());
  TARR_REQUIRE(slots_.front() >= 0 && slots_.back() < d.size(),
               "MappingState: slot outside distance matrix");
  TARR_REQUIRE(
      std::adjacent_find(slots_.begin(), slots_.end()) == slots_.end(),
      "MappingState: duplicate slot");
  assignment_.assign(p_, -1);
  free_at_.assign(p_, 1);
  if (by_tree_) {
    // O(p) Fenwick build over an all-free set.
    tree_.assign(p_ + 1, 0);
    for (int i = 1; i <= p_; ++i) {
      ++tree_[i];
      const int up = i + (i & -i);
      if (up <= p_) tree_[up] += tree_[i];
    }
    tree_top_ = static_cast<int>(std::bit_floor(static_cast<unsigned>(p_)));
    // Sparse table of adjacent-distance maxima: level j holds the max of
    // the 2^j adjacent distances starting at each position.
    const int m = p_ - 1;
    const int levels = m > 0 ? std::bit_width(static_cast<unsigned>(m)) : 0;
    span_max_.resize(static_cast<std::size_t>(levels) * m);
    for (int i = 0; i < m; ++i)
      span_max_[i] = d.at(slots_[i], slots_[i + 1]);
    for (int j = 1; j < levels; ++j) {
      const float* prev =
          span_max_.data() + static_cast<std::size_t>(j - 1) * m;
      float* cur = span_max_.data() + static_cast<std::size_t>(j) * m;
      for (int i = 0; i + (1 << j) <= m; ++i)
        cur[i] = std::max(prev[i], prev[i + (1 << (j - 1))]);
    }
  } else {
    free_ = slots_;
  }
  // Step 1: rank 0 stays on its current slot.
  assign(0, rank_to_slot[0]);
}

bool MappingState::is_mapped(Rank rank) const {
  TARR_REQUIRE(rank >= 0 && rank < p_, "is_mapped: rank out of range");
  return assignment_[rank] != -1;
}

int MappingState::slot_of(Rank rank) const {
  TARR_REQUIRE(is_mapped(rank), "slot_of: rank not mapped");
  return slots_[assignment_[rank]];
}

int MappingState::position_of(int slot) const {
  const auto it = std::lower_bound(slots_.begin(), slots_.end(), slot);
  if (it == slots_.end() || *it != slot) return -1;
  return static_cast<int>(it - slots_.begin());
}

int MappingState::free_below(int pos, std::uint64_t& steps) const {
  int n = 0;
  for (int i = pos; i > 0; i -= i & -i) {
    n += tree_[i];
    ++steps;
  }
  return n;
}

int MappingState::select_free(int k, std::uint64_t& steps) const {
  // Descend the implicit tree: `pos` ends as the count of positions that
  // precede the (k+1)-th free one.
  int pos = 0;
  int rem = k + 1;
  for (int step = tree_top_; step > 0; step >>= 1) {
    ++steps;
    if (pos + step <= p_ && tree_[pos + step] < rem) {
      pos += step;
      rem -= tree_[pos];
    }
  }
  return pos;
}

int MappingState::draw_tie(int ties) {
  return ties > 1 ? static_cast<int>(
                        rng_->next_below(static_cast<std::uint64_t>(ties)))
                  : 0;
}

/// On a range-ultrametric matrix d(x, y) is the largest adjacent distance
/// between x and y, also over any ascending subset of slots, so distances
/// from the reference grow (weakly) with every step away from it.  The
/// nearest free slot on each side therefore gives the minimum, and the tied
/// slots are every free slot of one contiguous position range [lo, hi]
/// around the reference.
int MappingState::pick_by_tree(int ref_pos, int& ties, std::uint64_t& steps) {
  const int m = p_ - 1;  // adjacent pairs of positions
  const auto span = [&](int level, int i) {
    ++steps;
    return span_max_[static_cast<std::size_t>(level) * m + i];
  };
  // max of adj[a, b), b > a: two overlapping power-of-two spans.
  const auto range_max = [&](int a, int b) {
    const int level = std::bit_width(static_cast<unsigned>(b - a)) - 1;
    return std::max(span(level, a), span(level, b - (1 << level)));
  };
  const int left_free = free_below(ref_pos, steps);
  const int right_free = p_ - mapped_ - left_free;
  const int left = left_free > 0 ? select_free(left_free - 1, steps) : -1;
  const int right = right_free > 0 ? select_free(left_free, steps) : -1;
  const float d_left = left >= 0 ? range_max(left, ref_pos) : 0.0f;
  const float d_right = right >= 0 ? range_max(ref_pos, right) : 0.0f;
  const float best = left < 0    ? d_right
                     : right < 0 ? d_left
                                 : std::min(d_left, d_right);

  // Widen to the tie range by binary lifting over the span maxima: step
  // outward by 2^level while the span crossed stays within `best`.
  const int top = std::bit_width(static_cast<unsigned>(m)) - 1;
  int lo = ref_pos;
  if (left >= 0 && d_left == best) {
    lo = left;
    for (int level = top; level >= 0; --level)
      if (lo >= (1 << level) && span(level, lo - (1 << level)) <= best)
        lo -= 1 << level;
  }
  int hi = ref_pos;
  if (right >= 0 && d_right == best) {
    hi = right;
    for (int level = top; level >= 0; --level)
      if (hi + (1 << level) <= m && span(level, hi) <= best)
        hi += 1 << level;
  }
  const int below_lo = lo == ref_pos ? left_free : free_below(lo, steps);
  const int upto_hi = hi == ref_pos ? left_free : free_below(hi + 1, steps);
  ties = upto_hi - below_lo;
  const int k = draw_tie(ties);
  const int chosen = select_free(below_lo + k, steps);

  // Live oracle: the ascending scan over the same free set must agree on
  // the minimum, the tie count and the k-th tie.  It draws no RNG.
  TARR_CHECK_SLOW(
      [&] {
        const float* row = d_->row(slots_[ref_pos]);
        std::vector<int> free;
        for (int i = 0; i < p_; ++i)
          if (free_at_[i]) free.push_back(slots_[i]);
        std::uint64_t unused = 0;
        const Ties t = scan_ties(free, row, unused);
        return t.dist == best && t.count == ties &&
               scan_kth(free, row, t, k, unused) == slots_[chosen];
      }(),
      "find_closest_to: range-ultrametric search disagrees with the scan");
  return chosen;
}

int MappingState::nearest_position(Rank ref_rank) {
  TARR_REQUIRE(mapped_ < p_, "find_closest_to: no free slots");
  TARR_REQUIRE(is_mapped(ref_rank), "slot_of: rank not mapped");
  const int ref_pos = assignment_[ref_rank];
  std::uint64_t steps = 0;
  int chosen = -1;
  int ties = 1;
  if (by_tree_) {
    chosen = pick_by_tree(ref_pos, ties, steps);
  } else {
    const float* row = d_->row(slots_[ref_pos]);
    const Ties t = scan_ties(free_, row, steps);
    ties = t.count;
    chosen = position_of(scan_kth(free_, row, t, draw_tie(t.count), steps));
  }
  if (ties > 1) {
    if (trace::TraceSink* sink = trace::thread_sink())
      sink->add_count("mapping.tie_breaks", 1.0);
  }
  if (prof::Profiler* p = prof::thread_profiler()) {
    p->count("mapping.scan_steps", static_cast<double>(steps));
    if (ties > 1) p->count("mapping.tie_breaks", 1.0);
  }
  return chosen;
}

int MappingState::find_closest_to(Rank ref_rank) {
  return slots_[nearest_position(ref_rank)];
}

void MappingState::assign(Rank rank, int slot) {
  place(rank, position_of(slot));
}

void MappingState::place(Rank rank, int pos) {
  TARR_REQUIRE(rank >= 0 && rank < p_, "assign: rank out of range");
  TARR_REQUIRE(assignment_[rank] == -1, "assign: rank already mapped");
  TARR_REQUIRE(pos >= 0 && free_at_[pos], "assign: slot not free");
  free_at_[pos] = 0;
  if (by_tree_) {
    for (int i = pos + 1; i <= p_; i += i & -i) --tree_[i];
  } else {
    free_.erase(std::lower_bound(free_.begin(), free_.end(), slots_[pos]));
  }
  assignment_[rank] = pos;
  ++mapped_;
  if (trace::TraceSink* sink = trace::thread_sink())
    sink->add_count("mapping.placements", 1.0);
  prof::count("mapping.placements");
}

void MappingState::map_close_to(Rank rank, Rank ref_rank) {
  place(rank, nearest_position(ref_rank));
}

Rank MappingState::first_unmapped() const {
  for (Rank r = 0; r < p_; ++r)
    if (assignment_[r] == -1) return r;
  return kNoRank;
}

std::vector<int> MappingState::result() const {
  TARR_REQUIRE(done(), "result: mapping incomplete");
  std::vector<int> result(p_);
  for (Rank r = 0; r < p_; ++r) result[r] = slots_[assignment_[r]];
  return result;
}

std::vector<int> finish_mapping(const MappingState& st,
                                const std::string& mapper,
                                const std::vector<int>& rank_to_slot) {
  std::vector<int> result = st.result();
  if constexpr (kSlowChecksEnabled)
    check::verify_mapping(mapper, rank_to_slot, result);
  return result;
}

}  // namespace tarr::mapping
