// Shared plumbing of the perfbench binary: run options, clocks and process
// counters, operation accounting, the result line, and the in-memory span
// trace the traced runs write out.

#ifndef TRUSS_PERFBENCH_UTIL_H_
#define TRUSS_PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test inputs: every recipe shrunk to a few thousand edges.
  bool tiny = false;
  /// Scratch directory for generated inputs (inside the checkout).
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string trace_out;
};

/// Independent generator seed for one part of a recipe.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Monotonic wall clock in seconds.
double Now();
/// User + system CPU seconds of the whole process (all threads).
double CpuSeconds();
/// CPU seconds stolen by the hypervisor, summed over all CPUs.
double StealSeconds();
/// Hands the heap's free memory back to the kernel, then resets the
/// kernel's peak-RSS watermark to the current RSS.
bool ResetPeakRss();
/// Peak RSS since the last reset, in MiB.
double PeakRssMb();
/// Current RSS, in MiB.
double RssMb();

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// The values joined with commas, for diag lines.
std::string JoinValues(const std::vector<double>& values);
/// Nearest-rank-below percentile, `q` in [0, 1].
double Percentile(std::vector<double> values, double q);

/// The CPU and wall seconds of every set-up of a run.
class SetUpTimes {
 public:
  /// Marks the start of one set-up.
  void Start();
  /// Marks its end.
  void Stop();
  /// Whether set-up should run again: at least 3 times and 2 CPU-seconds
  /// in total, at most 25 times, so that a cheap set-up still has a steady
  /// median.
  bool More() const;
  /// Median CPU seconds of a set-up: host steal inflates it less than wall
  /// time.
  double MedianCpu() const { return Median(cpu_s_); }
  /// Prints every set-up's CPU and wall seconds as a diag line.
  void PrintDiag() const;

 private:
  double cpu_start_ = 0.0;
  double wall_start_ = 0.0;
  std::vector<double> cpu_s_, wall_s_;
};

/// Counts every checked operation: attempted, and failed when it erred or
/// answered wrong. The first few failures are described on stderr.
class Checks {
 public:
  void Count(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Metric name -> (value, unit), printed in insertion-independent order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// Prints the run's result as one JSON line on stdout.
void PrintResult(const Checks& checks, const Metrics& metrics);

/// One `diag key=value ...` line on stdout (host noise, lateness, counts).
void Diag(const std::string& line);

/// In-memory span recorder. Span ids start at 1; parent 0 is the root.
/// Times are microseconds since the trace was created.
class Trace {
 public:
  Trace();

  /// Opens a span now and returns its id.
  uint32_t Begin(const std::string& name, uint32_t parent = 0);
  void End(uint32_t id);
  /// Records a span whose interval is already known (seconds, Now() clock).
  uint32_t Add(const std::string& name, uint32_t parent, double start_s,
               double end_s, int64_t rid = -1);
  void Arg(uint32_t id, const std::string& key, double value);
  void Arg(uint32_t id, const std::string& key, const std::string& value);

  /// Writes every span as one JSON document. Returns false on I/O failure.
  bool Write(const std::string& path, const RunOptions& options) const;

 private:
  struct Span {
    std::string name;
    uint32_t parent = 0;
    int64_t rid = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    std::map<std::string, double> num_args;
    std::map<std::string, std::string> str_args;
  };
  double origin_s_;
  std::vector<Span> spans_;
};

// Untraced workload entry points; each returns the process exit code.
int RunInmem(const RunOptions& options);
int RunExternal(const RunOptions& options);
int RunServe(const RunOptions& options);

}  // namespace perfbench

#endif  // TRUSS_PERFBENCH_UTIL_H_
