// The traced run. Whatever the workload, it probes every layer the
// per-layer metrics name: each group of layers below repeats its public
// calls, each inside a span, for as many rounds as --seconds allows, then
// the spans are written as one file for run.py. The in-memory and serving
// groups run on the workload's own graph; the external group always runs
// on external-tight's, because the I/O-efficient algorithms under a tight
// budget take minutes on the larger graphs.

#ifndef TRUSS_PERFBENCH_PROBES_H_
#define TRUSS_PERFBENCH_PROBES_H_

#include <memory>
#include <string>

#include "graph/text_io.h"
#include "truss/result.h"
#include "util.h"

namespace perfbench {

/// The workload's graph as every probe sees it.
struct TracedGraph {
  /// The graph written as SNAP text.
  std::string snap_path;
  /// That file read back with the sequential reader; every probe runs on
  /// `loaded.graph`.
  truss::LoadedGraph loaded;
  /// improved/threads=1 on `loaded.graph`.
  truss::TrussDecompositionResult reference;
};

/// One group of layers: Round() makes one traced pass over its calls and
/// counts every check; Finish() runs once after the last round.
class LayerProbes {
 public:
  virtual ~LayerProbes() = default;
  virtual void Round(Trace* trace, Checks* checks) = 0;
  virtual void Finish(Trace* /*trace*/, Checks* /*checks*/) {}
};

/// common, graph, triangle, truss (in memory) and engine.
std::unique_ptr<LayerProbes> MakeInmemProbes(const TracedGraph& input);
/// truss (external), partition and io, on external-tight's graph for the
/// run's seed. Null on failure.
std::unique_ptr<LayerProbes> MakeExternalProbes(const RunOptions& options);
/// serve: index, rebuild, protocol and round trips through a live server.
/// Null on failure.
std::unique_ptr<LayerProbes> MakeServeProbes(const TracedGraph& input,
                                             const RunOptions& options);

int RunTraced(const RunOptions& options);

}  // namespace perfbench

#endif  // TRUSS_PERFBENCH_PROBES_H_
