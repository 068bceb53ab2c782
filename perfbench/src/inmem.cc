// inmem-deep / inmem-wide: the in-memory user path. One job is
// Engine::DecomposeSnapFile on a SNAP text file with the `parallel`
// algorithm at threads=4, checked against an improved/threads=1 reference
// of the same file. Also the traced probes of the in-memory layers.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "common/parallel.h"
#include "engine/engine.h"
#include "graph/text_io.h"
#include "inputs.h"
#include "probes.h"
#include "triangle/triangle.h"
#include "truss/parallel_peel.h"
#include "util.h"

namespace perfbench {

using truss::Graph;
using truss::TrussDecompositionResult;
using truss::engine::DecomposeOptions;
using truss::engine::Engine;

namespace {

constexpr uint32_t kThreads = 4;
constexpr int kMinReps = 3;
constexpr int kForkJoinCallsPerRound = 200;

DecomposeOptions JobOptions() {
  DecomposeOptions options;
  options.algorithm = truss::engine::Algorithm::kParallel;
  options.threads = kThreads;
  return options;
}

// Generates the workload's graph and writes it as SNAP text.
bool SetUp(const RunOptions& options, const std::string& path) {
  const Graph g = WorkloadGraph(options.workload, options.seed, options.tiny);
  const truss::Status written = truss::WriteEdgeList(g, path);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
  }
  return written.ok();
}

bool SameAsReference(const truss::Result<truss::engine::DecomposeOutput>& out,
                     const TrussDecompositionResult& reference) {
  return out.ok() && truss::SameDecomposition(reference, out.value().result);
}

// Adds support and peel spans under `parent`, laid out from the phase split
// the library reports. The peel's sub-levels, when `peel_events` holds the
// times of its "peel" progress events, become children of the peel span.
void AddPhaseSpans(Trace* trace, uint32_t parent, double support_start,
                   double support_s, double peel_s,
                   const std::vector<double>& peel_events) {
  const double peel_start = support_start + support_s;
  trace->Add("truss.support", parent, support_start, peel_start);
  const uint32_t peel =
      trace->Add("truss.peel", parent, peel_start, peel_start + peel_s);
  double prev = peel_start;
  for (const double t : peel_events) {
    trace->Add("truss.peel.sublevel", peel, prev, t);
    prev = t;
  }
}

class InmemProbes : public LayerProbes {
 public:
  explicit InmemProbes(const TracedGraph& input) : input_(input) {}

  void Round(Trace* trace, Checks* checks) override {
    const Graph& g = input_.loaded.graph;
    const TrussDecompositionResult& reference = input_.reference;
    // The tracing overhead is taken on the probe that carries most of it:
    // the 4-thread peel with its progress hook and sub-level spans, against
    // the same call without the hook in the same round, so host noise that
    // drifts over the run cancels.
    {
      truss::MemoryTracker tracker;
      truss::PhaseTimings timings;
      const double start = Now();
      auto run = truss::ParallelTrussDecomposition(g, &tracker, kThreads,
                                                   nullptr, &timings);
      untraced_.push_back(Now() - start);
      checks->Count(run.ok() && truss::SameDecomposition(reference, run.value()),
                    "untraced parallel peel vs reference");
    }

    for (int i = 0; i < kForkJoinCallsPerRound; ++i) {
      const uint32_t span = trace->Begin("common.RunShards");
      truss::RunShards(kThreads, [](uint32_t) {});
      trace->End(span);
      trace->Arg(span, "shards", kThreads);
    }

    {
      const double cpu = CpuSeconds();
      const uint32_t span = trace->Begin("graph.ReadSnapEdgeList");
      auto parsed = truss::ReadSnapEdgeList(input_.snap_path, kThreads);
      trace->End(span);
      trace->Arg(span, "threads", kThreads);
      trace->Arg(span, "cpu_s", CpuSeconds() - cpu);
      trace->Arg(span, "input_bytes", static_cast<double>(
                                          std::filesystem::file_size(input_.snap_path)));
      checks->Count(parsed.ok() && truss::SameLoadedGraph(input_.loaded, parsed.value()),
                    "parallel ingest vs sequential reader");
    }

    {
      const uint32_t span = trace->Begin("triangle.Dodg");
      const truss::Dodg dodg(g, kThreads);
      trace->End(span);
      trace->Arg(span, "threads", kThreads);
      checks->Count(dodg.offsets().back() == g.num_edges(),
                    "DODG holds every edge once");
    }

    std::vector<uint32_t> supports[2];
    const uint32_t support_threads[2] = {kThreads, 1};
    for (int i = 0; i < 2; ++i) {
      const uint32_t span = trace->Begin("triangle.ComputeEdgeSupports");
      supports[i] = truss::ComputeEdgeSupports(g, support_threads[i]);
      trace->End(span);
      uint64_t sum = 0;
      for (const uint32_t s : supports[i]) sum += s;
      trace->Arg(span, "threads", support_threads[i]);
      trace->Arg(span, "triangles", static_cast<double>(sum / 3));
      checks->Count(sum % 3 == 0, "support sum is three per triangle");
    }
    checks->Count(supports[0] == supports[1], "supports equal at 1 and 4 threads");

    for (const uint32_t threads : {kThreads, 1u}) {
      truss::MemoryTracker tracker;
      truss::PhaseTimings timings;
      std::vector<double> peel_events;
      truss::ExecutionHooks hooks;
      hooks.progress = [&peel_events](const truss::ProgressEvent& e) {
        if (std::strcmp(e.stage, "peel") == 0) peel_events.push_back(Now());
      };
      const double start = Now();
      const uint32_t span = trace->Begin("truss.ParallelTrussDecomposition");
      auto run = truss::ParallelTrussDecomposition(g, &tracker, threads, &hooks,
                                                   &timings);
      trace->End(span);
      if (threads == kThreads) traced_.push_back(Now() - start);
      trace->Arg(span, "threads", threads);
      trace->Arg(span, "peak_structure_bytes",
                 static_cast<double>(tracker.peak_bytes()));
      checks->Count(run.ok() && truss::SameDecomposition(reference, run.value()),
                    "parallel peel vs reference");
      AddPhaseSpans(trace, span, start, timings.support_seconds,
                    timings.peel_seconds, peel_events);
    }

    {
      const double start = Now();
      const uint32_t span = trace->Begin("engine.Decompose");
      auto out = Engine::Decompose(g, JobOptions());
      trace->End(span);
      trace->Arg(span, "threads", kThreads);
      checks->Count(SameAsReference(out, reference), "engine decompose");
      if (out.ok()) {
        AddPhaseSpans(trace, span, start, out.value().stats.support_seconds,
                      out.value().stats.peel_seconds, {});
      }
    }
  }

  void Finish(Trace* /*trace*/, Checks* /*checks*/) override {
    std::vector<double> overhead;
    for (size_t i = 0; i < traced_.size(); ++i) {
      overhead.push_back(traced_[i] - untraced_[i]);
    }
    Diag("trace_overhead_s=" + std::to_string(Median(overhead)) +
         " of=ParallelTrussDecomposition_threads4_with_progress_hook" +
         " traced_s=" + std::to_string(Median(traced_)) +
         " untraced_s=" + std::to_string(Median(untraced_)));
  }

 private:
  const TracedGraph& input_;
  std::vector<double> untraced_, traced_;
};

}  // namespace

std::unique_ptr<LayerProbes> MakeInmemProbes(const TracedGraph& input) {
  return std::make_unique<InmemProbes>(input);
}

int RunInmem(const RunOptions& options) {
  Checks checks;
  const std::string path = options.work_dir + "/graph.txt";
  SetUpTimes setups;
  do {
    setups.Start();
    if (!SetUp(options, path)) return 1;
    setups.Stop();
  } while (setups.More());
  setups.PrintDiag();

  // The reference reads the file with the sequential reader and peels with
  // improved/threads=1, so it shares no code path with the measured job's
  // parallel reader and parallel peel.
  auto parsed = truss::ReadSnapEdgeListSequential(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  truss::LoadedGraph loaded = parsed.MoveValue();
  auto reference_run = Engine::Decompose(loaded.graph, {});
  if (!reference_run.ok()) return 1;
  TrussDecompositionResult reference =
      std::move(reference_run.value().result);
  Diag("graph vertices=" + std::to_string(loaded.graph.num_vertices()) +
       " edges=" + std::to_string(loaded.graph.num_edges()) +
       " kmax=" + std::to_string(reference.kmax) + " input_mb=" +
       std::to_string(std::filesystem::file_size(path) / 1048576.0));
  loaded = truss::LoadedGraph{};  // the measured phase's RSS excludes it

  // The watermark is reset before every job: a whole-phase peak would also
  // hold what the allocator's per-thread arenas kept from earlier jobs,
  // which put it 7 MB higher in about a third of inmem-deep's runs.
  bool rss_reset = true;
  const double steal_start = StealSeconds();
  std::vector<double> job_s, job_cpu_s, job_peak_mb;
  const double phase_start = Now();
  while (job_s.size() < kMinReps || Now() - phase_start < options.seconds) {
    rss_reset &= ResetPeakRss();
    const double cpu = CpuSeconds();
    const double start = Now();
    auto out = Engine::DecomposeSnapFile(path, JobOptions());
    job_s.push_back(Now() - start);
    job_cpu_s.push_back(CpuSeconds() - cpu);
    job_peak_mb.push_back(PeakRssMb());
    checks.Count(SameAsReference(out, reference),
                 "job " + std::to_string(job_s.size()) + ": " +
                     (out.ok() ? "wrong truss numbers"
                               : out.status().ToString()));
  }
  std::filesystem::remove(path);

  Diag("host nproc=" + std::to_string(std::thread::hardware_concurrency()) +
       " steal_s=" + std::to_string(StealSeconds() - steal_start) +
       " rss_reset=" + (rss_reset ? "yes" : "no") +
       " reps=" + std::to_string(job_s.size()) +
       " job_s_median=" + std::to_string(Median(job_s)));
  Diag("reps job_s=" + JoinValues(job_s) + " job_cpu_s=" + JoinValues(job_cpu_s) +
       " peak_rss_mb=" + JoinValues(job_peak_mb));
  // The wall time stays a diagnostic: on inmem-deep it follows host steal,
  // even the fastest rep's, because each of the hundreds of 4-thread
  // fork-joins waits for its slowest worker.
  PrintResult(checks, {{"setup_s", {setups.MedianCpu(), "s"}},
                       {"job_cpu_s", {Mean(job_cpu_s), "s"}},
                       {"peak_rss_mb", {Median(job_peak_mb), "MB"}}});
  return 0;
}

}  // namespace perfbench
