#include "check/mapping_verifier.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tarr::check {

void verify_mapping(const std::string& mapper, const std::vector<int>& input,
                    const std::vector<int>& result) {
  TARR_REQUIRE(result.size() == input.size(),
               "mapping invariant violated [" + mapper + "]: returned " +
                   std::to_string(result.size()) + " assignments for " +
                   std::to_string(input.size()) + " ranks");

  // The slot universe as a sorted vector (slot ids are sparse when a
  // communicator covers a subset of the machine's cores).  Sorted order
  // makes the first adjacent repeat the smallest duplicated slot.
  std::vector<int> universe = input;
  std::sort(universe.begin(), universe.end());
  const auto dup = std::adjacent_find(universe.begin(), universe.end());
  TARR_REQUIRE(dup == universe.end(),
               "mapping invariant violated [" + mapper + "]: input slot " +
                   std::to_string(dup == universe.end() ? 0 : *dup) +
                   " hosts more than one rank");

  std::vector<char> seen(universe.size(), 0);
  for (std::size_t new_rank = 0; new_rank < result.size(); ++new_rank) {
    const int slot = result[new_rank];
    const auto it = std::lower_bound(universe.begin(), universe.end(), slot);
    TARR_REQUIRE(it != universe.end() && *it == slot,
                 "mapping invariant violated [" + mapper + "]: new rank " +
                     std::to_string(new_rank) + " assigned slot " +
                     std::to_string(slot) + " outside the slot universe");
    char& hit = seen[static_cast<std::size_t>(it - universe.begin())];
    TARR_REQUIRE(hit == 0,
                 "mapping invariant violated [" + mapper + "]: slot " +
                     std::to_string(slot) +
                     " assigned to more than one rank (not a bijection)");
    hit = 1;
  }
}

void verify_hierarchical_composition(const std::vector<int>& original_cores,
                                     const std::vector<int>& composed_cores) {
  verify_mapping("hierarchical composition", original_cores, composed_cores);
}

}  // namespace tarr::check
