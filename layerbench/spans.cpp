#include <algorithm>
#include <numeric>

#include "bench.hpp"

namespace layerbench {

int SpanLog::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes nest, so the span closing is always the innermost one.
  stack_.pop_back();
}

void SpanLog::add_reported(const char* name, double seconds) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const std::int64_t start =
      parent < 0 ? now_ns() : spans_[static_cast<std::size_t>(parent)].start_ns;
  spans_.push_back(Span{name, parent, start,
                        start + static_cast<std::int64_t>(seconds * 1e9)});
}

std::vector<OpSpec> pass_specs(std::uint64_t seed, int pass, int classes) {
  std::vector<int> order(static_cast<std::size_t>(classes));
  std::iota(order.begin(), order.end(), 0);
  Gen g(mix(seed, 0x70617373ull, static_cast<std::uint64_t>(pass)));
  g.shuffle(order);
  std::vector<OpSpec> ops;
  ops.reserve(order.size());
  for (int i = 0; i < classes; ++i)
    ops.push_back(OpSpec{pass, i, order[static_cast<std::size_t>(i)],
                         mix(seed, static_cast<std::uint64_t>(pass),
                             static_cast<std::uint64_t>(i)),
                         seed});
  return ops;
}

}  // namespace layerbench
