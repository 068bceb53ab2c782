// The traced run: one set-up, then every group of probes (see probes.h).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "graph/text_io.h"
#include "inputs.h"
#include "probes.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr int kMinRounds = 2;

}  // namespace

int RunTraced(const RunOptions& options) {
  Checks checks;
  TracedGraph input;
  input.snap_path = options.work_dir + "/graph.txt";
  const truss::Status written = truss::WriteEdgeList(
      WorkloadGraph(options.workload, options.seed, options.tiny), input.snap_path);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  auto parsed = truss::ReadSnapEdgeListSequential(input.snap_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  input.loaded = parsed.MoveValue();
  auto reference_run = truss::engine::Engine::Decompose(input.loaded.graph, {});
  if (!reference_run.ok()) return 1;
  input.reference = std::move(reference_run.value().result);
  Diag("graph vertices=" + std::to_string(input.loaded.graph.num_vertices()) +
       " edges=" + std::to_string(input.loaded.graph.num_edges()) +
       " kmax=" + std::to_string(input.reference.kmax));

  std::vector<std::unique_ptr<LayerProbes>> groups;
  groups.push_back(MakeInmemProbes(input));
  groups.push_back(MakeExternalProbes(options));
  groups.push_back(MakeServeProbes(input, options));
  for (const auto& group : groups) {
    if (group == nullptr) {
      std::fprintf(stderr, "perfbench: probe set-up failed\n");
      return 1;
    }
  }

  Trace trace;
  const double start = Now();
  for (int round = 0; round < kMinRounds || Now() - start < options.seconds;
       ++round) {
    for (const auto& group : groups) group->Round(&trace, &checks);
  }
  for (const auto& group : groups) group->Finish(&trace, &checks);
  checks.Count(trace.Write(options.trace_out, options), "trace file written");
  std::filesystem::remove(input.snap_path);
  PrintResult(checks, {});
  return 0;
}

}  // namespace perfbench
