#include "topology/routing.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {

namespace {

/// Deterministic spreading hash used to pick among equal-length candidates.
/// Depends on (dst, current vertex) only — destination-based forwarding.
std::uint32_t route_hash(NodeId dst, NetVertexId at) {
  std::uint32_t h = static_cast<std::uint32_t>(dst) * 0x9e3779b9u;
  h ^= static_cast<std::uint32_t>(at) * 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

}  // namespace

std::string Partitioned::describe() const {
  std::ostringstream os;
  os << "hosts split into " << components.size() << " component(s):";
  constexpr std::size_t kMaxComponents = 8;
  constexpr std::size_t kMaxMembers = 8;
  for (std::size_t c = 0; c < components.size() && c < kMaxComponents; ++c) {
    os << " [";
    for (std::size_t i = 0; i < components[c].size(); ++i) {
      if (i == kMaxMembers) {
        os << " ...+" << components[c].size() - kMaxMembers;
        break;
      }
      if (i > 0) os << ' ';
      os << components[c][i];
    }
    os << ']';
  }
  if (components.size() > kMaxComponents)
    os << " ...+" << components.size() - kMaxComponents << " more";
  return os.str();
}

PartitionedError::PartitionedError(Partitioned info)
    : Error("network partitioned: " + info.describe()),
      info_(std::move(info)) {}

Partitioned host_components(const SwitchGraph& g) {
  const int V = g.num_vertices();
  std::vector<int> comp(V, -1);
  int num_comps = 0;
  std::deque<NetVertexId> queue;
  // Flood from hosts in node order so components come out ordered by their
  // smallest member.
  for (NodeId n = 0; n < g.num_hosts(); ++n) {
    const NetVertexId start = g.host_vertex(n);
    if (comp[start] != -1) continue;
    comp[start] = num_comps++;
    queue.clear();
    queue.push_back(start);
    while (!queue.empty()) {
      const NetVertexId u = queue.front();
      queue.pop_front();
      for (LinkId l : g.incident(u)) {
        const NetVertexId w = g.other_end(l, u);
        if (comp[w] == -1) {
          comp[w] = comp[u];
          queue.push_back(w);
        }
      }
    }
  }
  Partitioned out;
  out.components.resize(num_comps);
  for (NodeId n = 0; n < g.num_hosts(); ++n)
    out.components[comp[g.host_vertex(n)]].push_back(n);
  return out;
}

Router::Router(const SwitchGraph& g, HostPolicy policy)
    : graph_(&g), num_hosts_(g.num_hosts()) {
  prof::ProfScope pscope("route-build");
  components_ = host_components(g);
  if (policy == HostPolicy::RequireAll && components_.components.size() > 1)
    throw PartitionedError(components_);
  component_of_.assign(num_hosts_, 0);
  for (std::size_t c = 0; c < components_.components.size(); ++c)
    for (NodeId n : components_.components[c])
      component_of_[n] = static_cast<int>(c);

  const int V = g.num_vertices();
  const int H = num_hosts_;

  // CSR copy of the adjacency: vertex v's (neighbour, hop) entries are
  // adj[start[v] .. start[v+1]), in incident() order, so candidate order
  // (and with it every hashed pick) is the graph's own.  The hop is the
  // link leaving v, so its direction is fixed here, once per entry.
  struct Hop {
    NetVertexId to;
    HopId hop;
  };
  std::vector<std::size_t> start(static_cast<std::size_t>(V) + 1, 0);
  std::vector<Hop> adj;
  adj.reserve(2 * static_cast<std::size_t>(g.num_links()));
  for (NetVertexId v = 0; v < V; ++v) {
    for (LinkId l : g.incident(v)) {
      const NetLink& ln = g.link(l);
      adj.push_back(ln.a == v ? Hop{ln.b, 2 * l} : Hop{ln.a, 2 * l + 1});
    }
    start[v + 1] = adj.size();
  }
  std::vector<NetVertexId> host(H);
  for (NodeId n = 0; n < H; ++n) host[n] = g.host_vertex(n);

  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> level(V);
  std::vector<NetVertexId> order(V);  // BFS queue; ends as the visit order
  std::size_t reached = 0;            // vertices in `order`
  std::size_t touched = 0;            // adjacency entries read
  const auto bfs = [&](NodeId dst) {
    std::fill(level.begin(), level.end(), kUnreached);
    level[host[dst]] = 0;
    order[0] = host[dst];
    reached = 1;
    for (std::size_t head = 0; head < reached; ++head) {
      const NetVertexId u = order[head];
      touched += start[u + 1] - start[u];
      for (std::size_t e = start[u]; e < start[u + 1]; ++e) {
        if (level[adj[e].to] == kUnreached) {
          level[adj[e].to] = level[u] + 1;
          order[reached++] = adj[e].to;
        }
      }
    }
  };
  const auto routable = [&](NodeId src, NodeId dst) {
    return src != dst && component_of_[src] == component_of_[dst];
  };

  // Sizing pass: a route's length is its source's BFS level, so the flat
  // hop array is allocated once, at its exact size.
  std::size_t total = 0;
  for (NodeId dst = 0; dst < H; ++dst) {
    bfs(dst);
    for (NodeId src = 0; src < H; ++src) {
      if (!routable(src, dst)) continue;
      TARR_REQUIRE(level[host[src]] != kUnreached,
                   "Router: component map disagrees with BFS");
      total += level[host[src]];
    }
  }
  hops_.reserve(total);
  offset_.assign(static_cast<std::size_t>(H) * H + 1, 0);

  std::vector<Hop> next(V);  // next hop toward the destination
  for (NodeId dst = 0; dst < H; ++dst) {
    bfs(dst);
    // Next-hop table: every reached vertex picks one downhill link, the
    // hashed choice among its candidates in adjacency order.
    for (std::size_t i = 1; i < reached; ++i) {
      const NetVertexId at = order[i];
      const int down = level[at] - 1;
      std::uint32_t candidates = 0;
      for (std::size_t e = start[at]; e < start[at + 1]; ++e)
        if (level[adj[e].to] == down) ++candidates;
      TARR_REQUIRE(candidates > 0, "Router: BFS gradient broken");
      std::uint32_t pick = route_hash(dst, at) % candidates;
      std::size_t e = start[at];
      for (;; ++e)
        if (level[adj[e].to] == down && pick-- == 0) break;
      next[at] = adj[e];
      touched += (start[at + 1] - start[at]) + (e - start[at] + 1);
    }
    // Every source's path follows the table (destination-major storage).
    for (NodeId src = 0; src < H; ++src) {
      offset_[static_cast<std::size_t>(dst) * H + src] = hops_.size();
      if (!routable(src, dst)) continue;
      for (NetVertexId at = host[src]; at != host[dst]; at = next[at].to)
        hops_.push_back(next[at].hop);
    }
  }
  offset_.back() = hops_.size();
  prof::count("routing.adjacency_entries", static_cast<double>(touched));
}

std::span<const HopId> Router::path(NodeId src, NodeId dst) const {
  TARR_REQUIRE(src >= 0 && src < num_hosts_ && dst >= 0 && dst < num_hosts_,
               "Router::path: node out of range");
  if (src != dst && component_of_[src] != component_of_[dst])
    throw PartitionedError(components_);
  const std::size_t idx = static_cast<std::size_t>(dst) * num_hosts_ + src;
  return std::span<const HopId>(hops_.data() + offset_[idx],
                                hops_.data() + offset_[idx + 1]);
}

int Router::hops(NodeId src, NodeId dst) const {
  return static_cast<int>(path(src, dst).size());
}

bool Router::reachable(NodeId src, NodeId dst) const {
  TARR_REQUIRE(src >= 0 && src < num_hosts_ && dst >= 0 && dst < num_hosts_,
               "Router::reachable: node out of range");
  return src == dst || component_of_[src] == component_of_[dst];
}

}  // namespace tarr::topology
