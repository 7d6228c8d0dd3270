#include "topology/distance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {

namespace {

/// Magic header of the on-disk distance-matrix format.
constexpr std::uint32_t kDistanceFileMagic = 0x74615244u;  // "DRat"
constexpr std::uint32_t kDistanceFileVersion = 1;

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The direct range-ultrametric check over a row-major n x n array: each
/// row is compared against running maxima of the adjacent distances,
/// walking right and left from the diagonal, so the pass reads row-major.
bool rows_range_ultrametric(const float* m, int n) {
  const auto at = [&](int a, int b) {
    return m[static_cast<std::size_t>(a) * n + b];
  };
  std::vector<float> adj(n > 1 ? n - 1 : 0);
  for (int s = 0; s + 1 < n; ++s) {
    adj[s] = at(s, s + 1);
    if (!std::isfinite(adj[s])) return false;
  }
  for (int a = 0; a < n; ++a) {
    if (at(a, a) != 0.0f) return false;
    float run = -kInf;
    for (int b = a + 1; b < n; ++b) {
      run = std::max(run, adj[b - 1]);
      if (at(a, b) != run) return false;
    }
    run = -kInf;
    for (int b = a - 1; b >= 0; --b) {
      run = std::max(run, adj[b]);
      if (at(a, b) != run) return false;
    }
  }
  return true;
}

}  // namespace

bool is_range_ultrametric(const DistanceMatrix& d) {
  return rows_range_ultrametric(d.row(0), d.size());
}

void DistanceMatrix::detect_range_ultrametric() {
  range_ultrametric_ = rows_range_ultrametric(d_.data(), n_);
}

float intra_level_weight(const DistanceConfig& cfg, IntraLevel level) {
  switch (level) {
    case IntraLevel::SameCore:
      return cfg.same_core;
    case IntraLevel::SameComplex:
      return cfg.same_socket;
    case IntraLevel::CrossComplex:
      return cfg.cross_complex;
    case IntraLevel::CrossSocket:
      return cfg.cross_socket;
  }
  return cfg.cross_socket;
}

DistanceMatrix::DistanceMatrix(int n, float fill)
    : n_(n), d_(static_cast<std::size_t>(n) * n, fill) {
  TARR_REQUIRE(n >= 1, "DistanceMatrix: size must be >= 1");
}

void DistanceMatrix::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TARR_REQUIRE(out.good(), "DistanceMatrix::save: cannot open " + path);
  const std::uint32_t header[3] = {kDistanceFileMagic, kDistanceFileVersion,
                                   static_cast<std::uint32_t>(n_)};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(d_.data()),
            static_cast<std::streamsize>(d_.size() * sizeof(float)));
  TARR_REQUIRE(out.good(), "DistanceMatrix::save: write failed for " + path);
}

DistanceMatrix DistanceMatrix::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  TARR_REQUIRE(in.good(), "DistanceMatrix::load: cannot open " + path);
  const std::streamoff file_bytes = in.tellg();
  in.seekg(0);
  std::uint32_t header[3] = {};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  TARR_REQUIRE(in.good() && header[0] == kDistanceFileMagic,
               "DistanceMatrix::load: not a distance-matrix file: " + path);
  TARR_REQUIRE(header[1] == kDistanceFileVersion,
               "DistanceMatrix::load: unsupported version in " + path);
  // The header's n is untrusted: check n^2 cells against the payload the
  // file actually holds (64-bit, n < 2^31) before allocating anything.
  const std::uint64_t n = header[2];
  const std::uint64_t payload =
      static_cast<std::uint64_t>(file_bytes) - sizeof(header);
  TARR_REQUIRE(n >= 1 && n <= static_cast<std::uint64_t>(
                                  std::numeric_limits<int>::max()),
               "DistanceMatrix::load: corrupt size in " + path);
  TARR_REQUIRE(payload % sizeof(float) == 0 &&
                   payload / sizeof(float) == n * n,
               "DistanceMatrix::load: header claims " + std::to_string(n) +
                   "x" + std::to_string(n) + " cells but " + path +
                   " holds " + std::to_string(payload) + " payload bytes");
  DistanceMatrix d(static_cast<int>(n));
  in.read(reinterpret_cast<char*>(d.d_.data()),
          static_cast<std::streamsize>(d.d_.size() * sizeof(float)));
  TARR_REQUIRE(in.gcount() ==
                   static_cast<std::streamsize>(d.d_.size() * sizeof(float)),
               "DistanceMatrix::load: truncated file " + path);
  d.detect_range_ultrametric();
  return d;
}

namespace {

/// Row-major N x N node distances: inter_node_base + per_hop * hops, 0 on
/// the diagonal.  On a degraded fabric (AllowUnreachable router) a split
/// pair is "infinitely far": mappers naturally avoid it, and any schedule
/// that would actually route across the cut fails structurally instead.
std::vector<float> node_distance_rows(const Machine& m,
                                      const DistanceConfig& cfg) {
  const Router& router = m.router();
  const int nodes = m.num_nodes();
  std::vector<float> d(static_cast<std::size_t>(nodes) * nodes, 0.0f);
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      const float v =
          router.reachable(a, b)
              ? cfg.inter_node_base +
                    cfg.per_hop * static_cast<float>(router.hops(a, b))
              : kInf;
      d[static_cast<std::size_t>(a) * nodes + b] = v;
      d[static_cast<std::size_t>(b) * nodes + a] = v;
    }
  }
  return d;
}

}  // namespace

DistanceMatrix extract_distances(const Machine& m, const DistanceConfig& cfg) {
  const int total = m.total_cores();
  const int cpn = m.cores_per_node();
  prof::ProfScope pscope("distance-extraction");
  prof::count("distance.cells", static_cast<double>(total) * total);
  DistanceMatrix d(total);

  // Intra-node block template: identical for every node, computed once.
  std::vector<float> intra(static_cast<std::size_t>(cpn) * cpn);
  for (int a = 0; a < cpn; ++a) {
    for (int b = 0; b < cpn; ++b) {
      intra[static_cast<std::size_t>(a) * cpn + b] =
          intra_level_weight(cfg, intranode_level(m.shape(), a, b));
    }
  }
  const int nodes = m.num_nodes();
  const std::vector<float> node = node_distance_rows(m, cfg);

  // Factored range-ultrametric check, O(N^2 + cpn^2): cores are numbered
  // node-major, so the core matrix is range-ultrametric iff the node matrix
  // and the intra template are, and no intra distance exceeds an inter-node
  // one.  On a range-ultrametric node matrix the smallest inter-node
  // distance is an adjacent one.
  float min_inter = kInf;
  for (NodeId n = 0; n + 1 < nodes; ++n)
    min_inter = std::min(min_inter,
                         node[static_cast<std::size_t>(n) * nodes + n + 1]);
  d.range_ultrametric_ =
      rows_range_ultrametric(intra.data(), cpn) &&
      rows_range_ultrametric(node.data(), nodes) &&
      *std::max_element(intra.begin(), intra.end()) <= min_inter;

  // Write the core rows in order (core id = node * cpn + local): each row
  // is one node-distance row widened cpn-fold, with the intra template row
  // in its own node's block.
  float* out = d.d_.data();
  for (NodeId na = 0; na < nodes; ++na) {
    const float* node_row = node.data() + static_cast<std::size_t>(na) * nodes;
    for (int a = 0; a < cpn; ++a) {
      for (NodeId nb = 0; nb < nodes; ++nb, out += cpn) {
        if (nb == na)
          std::copy_n(intra.data() + static_cast<std::size_t>(a) * cpn, cpn,
                      out);
        else
          std::fill_n(out, cpn, node_row[nb]);
      }
    }
  }
  return d;
}

DistanceMatrix extract_node_distances(const Machine& m,
                                      const DistanceConfig& cfg) {
  prof::ProfScope pscope("distance-extraction:node");
  prof::count("distance.cells",
              static_cast<double>(m.num_nodes()) * m.num_nodes());
  DistanceMatrix d(m.num_nodes());
  d.d_ = node_distance_rows(m, cfg);
  d.detect_range_ultrametric();
  return d;
}

DistanceMatrix extract_intranode_distances(const Machine& m,
                                           const DistanceConfig& cfg) {
  const int cpn = m.cores_per_node();
  prof::ProfScope pscope("distance-extraction:intra");
  prof::count("distance.cells", static_cast<double>(cpn) * cpn);
  DistanceMatrix d(cpn);
  for (int a = 0; a < cpn; ++a) {
    for (int b = a + 1; b < cpn; ++b) {
      d.set(a, b, intra_level_weight(cfg, intranode_level(m.shape(), a, b)));
    }
  }
  d.detect_range_ultrametric();
  return d;
}

}  // namespace tarr::topology
