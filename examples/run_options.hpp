#pragma once

/// \file run_options.hpp
/// Parsing of the run options the scenario CLIs share (tarrmap, tarr-report,
/// tarr-viz, tarr-insight, tarr-analyze): machine size, layout, pattern and
/// mapper names.
/// Each check throws cli::UsageError, so a bad value takes the usage path
/// (exit 2) while the arguments are read — before any machine is built or
/// output opened.

#include <initializer_list>
#include <string>
#include <string_view>

#include "common/cli.hpp"
#include "mapping/mapper.hpp"
#include "simmpi/layout.hpp"
#include "topology/fattree.hpp"
#include "topology/intranode.hpp"

namespace tarr::cli {

/// `--nodes`: 1 up to the largest GPC tree `build_gpc_network` makes.
inline int parse_nodes(const std::string& opt, const char* s) {
  return static_cast<int>(
      parse_int(opt, s, 1, topology::GpcTreeConfig{}.max_nodes()));
}

inline simmpi::LayoutSpec parse_layout(const std::string& s) {
  for (const auto& spec : simmpi::all_layouts())
    if (to_string(spec) == s) return spec;
  throw UsageError("unknown layout: " + s);
}

inline mapping::Pattern parse_pattern(const std::string& s) {
  for (auto p : {mapping::Pattern::RecursiveDoubling, mapping::Pattern::Ring,
                 mapping::Pattern::BinomialBcast,
                 mapping::Pattern::BinomialGather, mapping::Pattern::Bruck})
    if (s == mapping::to_string(p)) return p;
  throw UsageError("unknown pattern: " + s);
}

/// Checks one run's names and its size: the layout and pattern must parse,
/// the mapper must be one of `mappers`, and `procs` must fit the cores of
/// `nodes` default-shaped nodes.
inline void check_run(int nodes, int procs, const std::string& layout,
                      const std::string& pattern, const std::string& mapper,
                      std::initializer_list<std::string_view> mappers) {
  parse_layout(layout);
  parse_pattern(pattern);
  bool known = false;
  for (std::string_view m : mappers) known = known || mapper == m;
  if (!known) throw UsageError("unknown mapper: " + mapper);
  const int max_procs = nodes * topology::NodeShape{}.cores_per_node();
  if (procs > max_procs)
    throw UsageError("--procs " + std::to_string(procs) + " exceeds the " +
                     std::to_string(max_procs) + " cores of " +
                     std::to_string(nodes) + " nodes");
}

}  // namespace tarr::cli
