// external-tight: the I/O-efficient path under a memory budget of 1/6 of
// the in-memory structure footprint. One job is two Engine::DecomposeFile
// calls from the GEdgeRecord input file to the class-record file: bottom-up
// for the full decomposition, then top-down for the top-20 classes. Also
// the traced probes of the external layers.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "inputs.h"
#include "io/edge_records.h"
#include "io/env.h"
#include "probes.h"
#include "truss/external_util.h"
#include "util.h"

namespace perfbench {

using truss::Graph;
using truss::TrussDecompositionResult;
using truss::engine::Algorithm;
using truss::engine::DecomposeOptions;
using truss::engine::Engine;

namespace {

constexpr int kMinReps = 3;
constexpr int32_t kTopT = 20;
constexpr size_t kBlockBytes = 64 * 1024;
constexpr char kPristine[] = "pristine.edges";
constexpr char kInput[] = "input.edges";
constexpr char kClasses[] = "classes.out";

// 1/6 of what the in-memory algorithms need for `g`.
uint64_t TightBudget(const Graph& g) {
  return static_cast<uint64_t>(g.num_edges()) * truss::kBytesPerEdgeInMemory / 6;
}

// Writes `g` as the pristine input file every job starts from.
bool WritePristine(const std::string& dir, const Graph& g) {
  truss::io::Env env(dir, kBlockBytes);
  const truss::Status written = truss::WriteGraphFile(env, g, kPristine);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
  }
  return written.ok();
}

struct JobRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double start_s = 0.0;
  /// RSS just before the call (the harness: graph, reference, buffers) and
  /// the peak the call added on top of it, read before the answer is checked.
  double base_rss_mb = 0.0;
  double job_peak_mb = 0.0;
  bool rss_reset = false;
  /// Time of the first "peel" progress event: the end of lower bounding.
  double first_peel_s = 0.0;
  truss::engine::DecomposeStats stats;
};

// The top-20 query must return exactly the edges of the reference's 20
// highest non-empty classes, plus its Phi_2 edges.
bool SameTopClasses(const std::vector<truss::io::ClassRecord>& records,
                    const Graph& g, const TrussDecompositionResult& reference) {
  std::set<uint32_t> levels;
  for (const uint32_t k : reference.truss_number) {
    if (k >= 3) levels.insert(k);
  }
  while (levels.size() > static_cast<size_t>(kTopT)) levels.erase(levels.begin());
  levels.insert(2);
  uint64_t expected = 0;
  for (const uint32_t k : reference.truss_number) expected += levels.count(k);
  if (records.size() != expected) return false;
  std::vector<bool> seen(g.num_edges(), false);
  for (const truss::io::ClassRecord& r : records) {
    const truss::EdgeId e = g.FindEdge(r.u, r.v);
    if (e == truss::kInvalidEdge || seen[e] ||
        reference.truss_number[e] != r.truss || levels.count(r.truss) == 0) {
      return false;
    }
    seen[e] = true;
  }
  return true;
}

JobRun RunJob(const std::string& dir, const Graph& g, uint64_t budget,
              Algorithm algorithm, bool traced,
              const TrussDecompositionResult& reference, Checks* checks) {
  JobRun run;
  std::filesystem::copy_file(dir + "/" + kPristine, dir + "/" + kInput,
                             std::filesystem::copy_options::overwrite_existing);
  truss::io::Env env(dir, kBlockBytes);
  DecomposeOptions options;
  options.algorithm = algorithm;
  options.memory_budget_bytes = budget;
  options.io_block_size_bytes = kBlockBytes;
  if (algorithm == Algorithm::kTopDown) options.top_t = kTopT;
  if (traced) {
    options.hooks.progress = [&run](const truss::ProgressEvent& e) {
      if (run.first_peel_s == 0.0 && std::strcmp(e.stage, "peel") == 0) {
        run.first_peel_s = Now();
      }
    };
  }

  run.rss_reset = ResetPeakRss();
  run.base_rss_mb = RssMb();
  const double cpu = CpuSeconds();
  run.start_s = Now();
  auto stats = Engine::DecomposeFile(env, kInput, g.num_vertices(), options,
                                     kClasses);
  run.wall_s = Now() - run.start_s;
  run.cpu_s = CpuSeconds() - cpu;
  run.job_peak_mb = PeakRssMb() - run.base_rss_mb;

  const char* name = algorithm == Algorithm::kTopDown ? "top-20" : "bottom-up";
  if (!stats.ok()) {
    checks->Count(false, std::string(name) + ": " + stats.status().ToString());
    env.CleanupAll();
    return run;
  }
  run.stats = stats.value();
  bool same = false;
  if (algorithm == Algorithm::kTopDown) {
    auto records = truss::ReadAllRecords<truss::io::ClassRecord>(env, kClasses);
    same = records.ok() && SameTopClasses(records.value(), g, reference);
  } else {
    auto classes = truss::LoadClassesAsDecomposition(env, kClasses, g);
    same = classes.ok() && truss::SameDecomposition(reference, classes.value());
  }
  checks->Count(same, std::string(name) + " classes differ from the reference");
  env.CleanupAll();
  return run;
}

class ExternalProbes : public LayerProbes {
 public:
  ExternalProbes(std::string dir, Graph g, TrussDecompositionResult reference)
      : dir_(std::move(dir)),
        g_(std::move(g)),
        reference_(std::move(reference)),
        budget_(TightBudget(g_)) {
    Diag("external_probe edges=" + std::to_string(g_.num_edges()) +
         " kmax=" + std::to_string(reference_.kmax) +
         " budget_bytes=" + std::to_string(budget_));
  }

  // The overhead compares each traced bottom-up job with an untraced one
  // run just before it, so host noise that drifts over the run cancels.
  void Round(Trace* trace, Checks* checks) override {
    const double untraced_s = RunJob(dir_, g_, budget_, Algorithm::kBottomUp,
                                     false, reference_, checks)
                                  .wall_s;
    for (const Algorithm algorithm : {Algorithm::kBottomUp, Algorithm::kTopDown}) {
      const JobRun run =
          RunJob(dir_, g_, budget_, algorithm, true, reference_, checks);
      if (algorithm == Algorithm::kBottomUp) {
        traced_.push_back(run.wall_s);
        overhead_.push_back(run.wall_s - untraced_s);
      }
      const double end = run.start_s + run.wall_s;
      const uint32_t span =
          trace->Add("engine.DecomposeFile", 0, run.start_s, end);
      const truss::ExternalStats& s = run.stats.external;
      trace->Arg(span, "algo",
                 algorithm == Algorithm::kTopDown ? "topdown" : "bottomup");
      trace->Arg(span, "lb_iterations", s.lower_bound_iterations);
      trace->Arg(span, "overflows", static_cast<double>(s.candidate_overflows));
      trace->Arg(span, "parts", static_cast<double>(s.parts_processed));
      trace->Arg(span, "block_reads", static_cast<double>(s.io.block_reads));
      trace->Arg(span, "block_writes", static_cast<double>(s.io.block_writes));
      trace->Arg(span, "bytes_read", static_cast<double>(s.io.bytes_read));
      trace->Arg(span, "bytes_written", static_cast<double>(s.io.bytes_written));
      const double split = run.first_peel_s > 0.0 ? run.first_peel_s : end;
      trace->Add("truss.lower_bound", span, run.start_s, split);
      trace->Add("truss.kstages", span, split, end);
    }
  }

  void Finish(Trace* /*trace*/, Checks* /*checks*/) override {
    std::filesystem::remove_all(dir_);
    Diag("trace_overhead_s=" + std::to_string(Median(overhead_)) +
         " of=bottomup_job_with_progress_hook traced_job_s=" +
         std::to_string(Median(traced_)));
  }

 private:
  std::string dir_;
  Graph g_;
  TrussDecompositionResult reference_;
  uint64_t budget_;
  std::vector<double> overhead_, traced_;
};

}  // namespace

std::unique_ptr<LayerProbes> MakeExternalProbes(const RunOptions& options) {
  Graph g = CommunityGraph(options.seed, options.tiny);
  auto reference = Engine::Decompose(g, {});
  const std::string dir = options.work_dir + "/external";
  std::filesystem::create_directories(dir);
  if (!reference.ok() || !WritePristine(dir, g)) return nullptr;
  return std::make_unique<ExternalProbes>(dir, std::move(g),
                                          std::move(reference.value().result));
}

int RunExternal(const RunOptions& options) {
  Checks checks;
  SetUpTimes setups;
  Graph g;
  do {
    setups.Start();
    g = WorkloadGraph(options.workload, options.seed, options.tiny);
    if (!WritePristine(options.work_dir, g)) return 1;
    setups.Stop();
  } while (setups.More());
  setups.PrintDiag();
  const uint64_t budget = TightBudget(g);

  auto reference_run = Engine::Decompose(g, {});
  if (!reference_run.ok()) return 1;
  const TrussDecompositionResult reference =
      std::move(reference_run.value().result);
  Diag("graph vertices=" + std::to_string(g.num_vertices()) +
       " edges=" + std::to_string(g.num_edges()) +
       " kmax=" + std::to_string(reference.kmax) +
       " budget_bytes=" + std::to_string(budget));

  // Peak RSS is the most one call added to the harness's RSS.
  const double steal_start = StealSeconds();
  std::vector<double> job_cpu_s, bottomup_s, topt_s, job_peak_mb, base_rss_mb;
  double absolute_peak_mb = 0.0;
  bool rss_reset = true;
  JobRun last;
  const double phase_start = Now();
  while (job_cpu_s.size() < kMinReps || Now() - phase_start < options.seconds) {
    double cpu = 0.0;
    for (const Algorithm algorithm : {Algorithm::kBottomUp, Algorithm::kTopDown}) {
      const JobRun run = RunJob(options.work_dir, g, budget, algorithm, false,
                                reference, &checks);
      cpu += run.cpu_s;
      if (algorithm == Algorithm::kBottomUp) {
        bottomup_s.push_back(run.wall_s);
        last = run;
      } else {
        topt_s.push_back(run.wall_s);
      }
      job_peak_mb.push_back(run.job_peak_mb);
      base_rss_mb.push_back(run.base_rss_mb);
      absolute_peak_mb =
          std::max(absolute_peak_mb, run.base_rss_mb + run.job_peak_mb);
      rss_reset &= run.rss_reset;
    }
    job_cpu_s.push_back(cpu);
  }
  std::filesystem::remove(options.work_dir + "/" + kPristine);

  const truss::ExternalStats& s = last.stats.external;
  const double peak_rss = std::ranges::max(job_peak_mb);
  Diag("host nproc=" + std::to_string(std::thread::hardware_concurrency()) +
       " steal_s=" + std::to_string(StealSeconds() - steal_start) +
       " rss_reset=" + (rss_reset ? "yes" : "no") +
       " reps=" + std::to_string(job_cpu_s.size()) +
       " lb_iterations=" + std::to_string(s.lower_bound_iterations) +
       " block_ios=" + std::to_string(s.io.total_blocks()) +
       " cpu_per_wall=" +
       std::to_string(Median(job_cpu_s) / (Median(bottomup_s) + Median(topt_s))));
  Diag("reps job_cpu_s=" + JoinValues(job_cpu_s) + " bottomup_s=" +
       JoinValues(bottomup_s) + " topt_s=" + JoinValues(topt_s));
  Diag("rss job_peak_mb=" + std::to_string(peak_rss) +
       " harness_rss_mb=" + std::to_string(Median(base_rss_mb)) +
       " absolute_peak_mb=" + std::to_string(absolute_peak_mb));
  PrintResult(checks, {{"setup_s", {setups.MedianCpu(), "s"}},
                       {"job_cpu_s", {Mean(job_cpu_s), "s"}},
                       {"peak_rss_mb", {peak_rss, "MB"}}});
  return 0;
}

}  // namespace perfbench
