#include "inputs.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "util.h"

namespace perfbench {

using truss::Edge;
using truss::Graph;
using truss::VertexId;

namespace {

// The datasets registry keeps these two helpers private; the recipes below
// need them with run-derived seeds.
Graph PlantRandomCliques(const Graph& base, uint32_t count, uint32_t min_size,
                         uint32_t max_size, uint64_t seed) {
  truss::Rng rng(seed);
  std::vector<Edge> edges(base.edges().begin(), base.edges().end());
  const VertexId n = base.num_vertices();
  std::vector<VertexId> members;
  for (uint32_t c = 0; c < count; ++c) {
    const auto size =
        min_size + static_cast<uint32_t>(rng.Uniform(max_size - min_size + 1));
    members.clear();
    while (members.size() < size) {
      const auto v = static_cast<VertexId>(rng.Uniform(n));
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members.push_back(v);
      }
    }
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        edges.push_back(truss::MakeEdge(members[i], members[j]));
      }
    }
  }
  return Graph::FromEdges(std::move(edges), n);
}

Graph AddHubStar(const Graph& base, uint32_t leaves, uint64_t seed) {
  const VertexId hub = base.num_vertices() - 1;
  truss::Rng rng(seed);
  std::vector<Edge> edges(base.edges().begin(), base.edges().end());
  for (uint32_t i = 0; i < leaves; ++i) {
    const auto v = static_cast<VertexId>(rng.Uniform(base.num_vertices()));
    if (v != hub) edges.push_back(truss::MakeEdge(hub, v));
  }
  return Graph::FromEdges(std::move(edges), base.num_vertices());
}

}  // namespace

Graph DeepGraph(uint64_t seed, bool tiny) {
  Graph g = tiny ? truss::gen::RMat(10, 4000, 0.57, 0.19, 0.19, SubSeed(seed, 1))
                 : truss::gen::RMat(17, 620000, 0.57, 0.19, 0.19,
                                    SubSeed(seed, 1));
  g = PlantRandomCliques(g, tiny ? 5 : 40, 6, tiny ? 10 : 20, SubSeed(seed, 2));
  g = AddHubStar(g, tiny ? 300 : 35000, SubSeed(seed, 3));
  return truss::gen::PlantClique(g, tiny ? 14 : 68, SubSeed(seed, 4));
}

Graph WideGraph(uint64_t seed, bool tiny) {
  const VertexId n = tiny ? 4096 : 262144;
  const Graph tree = truss::gen::BarabasiAlbert(n, 1, SubSeed(seed, 1));
  const Graph er =
      truss::gen::ErdosRenyiGnm(n, tiny ? 12000 : 1200000, SubSeed(seed, 2));
  const std::vector<Edge> extra(er.edges().begin(), er.edges().end());
  Graph g = truss::gen::AddEdges(tree, extra);
  g = AddHubStar(g, tiny ? 1500 : 120000, SubSeed(seed, 3));
  return truss::gen::PlantClique(g, 7, SubSeed(seed, 4));
}

Graph CommunityGraph(uint64_t seed, bool tiny) {
  const Graph g = truss::gen::PlantedCommunities(
      tiny ? 60 : 750, 10, 0.5, tiny ? 1500 : 30000, SubSeed(seed, 1));
  return truss::gen::PlantClique(g, tiny ? 12 : 24, SubSeed(seed, 2));
}

Graph AmazonGraph(uint64_t seed, bool tiny) {
  Graph g = truss::gen::PlantedCommunities(tiny ? 300 : 10000, 8, 0.6,
                                           tiny ? 2000 : 120000,
                                           SubSeed(seed, 1));
  g = AddHubStar(g, tiny ? 100 : 2700, SubSeed(seed, 2));
  return truss::gen::PlantClique(g, 11, SubSeed(seed, 3));
}

Graph WorkloadGraph(const std::string& workload, uint64_t seed, bool tiny) {
  if (workload == "inmem-deep") return DeepGraph(seed, tiny);
  if (workload == "inmem-wide") return WideGraph(seed, tiny);
  if (workload == "external-tight") return CommunityGraph(seed, tiny);
  return AmazonGraph(seed, tiny);
}

}  // namespace perfbench
