// Negative-cycle detection on residual networks (Bellman–Ford).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "flow/residual.hpp"
#include "flow/workspace.hpp"

namespace musketeer::flow {

/// Finds a strictly negative-cost cycle among `arcs` (only arcs with
/// positive residual participate; build_residual already guarantees that).
/// Returns the arc indices of one such cycle, in traversal order, or
/// nullopt if none exists. Costs are exact integers, so "strictly
/// negative" has no epsilon.
std::optional<std::vector<int>> find_negative_cycle(
    NodeId num_nodes, std::span<const ResidualArc> arcs);

/// Scratch-reusing variant (bit-identical result): distance/predecessor
/// tables live in `scratch` and are reused across calls.
std::optional<std::vector<int>> find_negative_cycle(
    NodeId num_nodes, std::span<const ResidualArc> arcs,
    BellmanFordScratch& scratch);

}  // namespace musketeer::flow
