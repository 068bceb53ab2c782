// Seed-driven input recipes. Each is the registry stand-in recipe of
// src/datasets (or bench_ablation's) with every generator seed derived from
// the run's --seed, so one seed always yields the same graph and different
// seeds yield graphs of the same shape. `tiny` shrinks every recipe to a
// few thousand edges for the smoke test.

#ifndef TRUSS_PERFBENCH_INPUTS_H_
#define TRUSS_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace perfbench {

/// Skitter stand-in: R-MAT scale 17 (~620k edges), 40 planted cliques of
/// 6-20 vertices, a 35k-leaf hub and a 68-clique. Deep: ~450 peel
/// sub-levels.
truss::Graph DeepGraph(uint64_t seed, bool tiny);

/// BTC stand-in at half scale: a Barabasi-Albert tree on 262k vertices,
/// 1.2M G(n,m) edges, a 120k-leaf hub and a 7-clique. Wide: few triangles,
/// 7 sub-levels.
truss::Graph WideGraph(uint64_t seed, bool tiny);

/// bench_ablation's planted-community recipe at half size: 750 communities
/// of 10 vertices, p_in 0.5, 30k inter-community edges and a 24-clique.
truss::Graph CommunityGraph(uint64_t seed, bool tiny);

/// Amazon stand-in: 10k planted communities of 8 vertices, p_in 0.6, 120k
/// inter-community edges, a 2700-leaf hub and an 11-clique.
truss::Graph AmazonGraph(uint64_t seed, bool tiny);

/// The recipe a workload runs on: DeepGraph for inmem-deep, WideGraph for
/// inmem-wide, CommunityGraph for external-tight, AmazonGraph for serve-open.
truss::Graph WorkloadGraph(const std::string& workload, uint64_t seed, bool tiny);

}  // namespace perfbench

#endif  // TRUSS_PERFBENCH_INPUTS_H_
