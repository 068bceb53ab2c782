#include "util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 over (seed, tag): nearby seeds give unrelated streams.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  in >> cpu;
  for (uint64_t& f : fields) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return static_cast<double>(fields[7]) / 100.0;  // USER_HZ ticks
}

bool ResetPeakRss() {
  // Hand the heap that set-up freed back to the kernel first, so the
  // measured phase starts from the same RSS whatever set-up left behind.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

namespace {

// One `Vm...:` line of /proc/self/status (reported in kB), in MiB.
double StatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double RssMb() { return StatusMb("VmRSS:"); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx =
      static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  return values[idx];
}

void SetUpTimes::Start() {
  cpu_start_ = CpuSeconds();
  wall_start_ = Now();
}

void SetUpTimes::Stop() {
  cpu_s_.push_back(CpuSeconds() - cpu_start_);
  wall_s_.push_back(Now() - wall_start_);
}

bool SetUpTimes::More() const {
  double total = 0.0;
  for (const double s : cpu_s_) total += s;
  return cpu_s_.size() < 25 && (cpu_s_.size() < 3 || total < 2.0);
}

void SetUpTimes::PrintDiag() const {
  Diag("setup cpu_s=" + JoinValues(cpu_s_) + " wall_s=" + JoinValues(wall_s_));
}

void Checks::Count(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintResult(const Checks& checks, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(metric.first) << ", \"unit\": "
        << JsonString(metric.second) << "}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

void Diag(const std::string& line) {
  std::printf("diag %s\n", line.c_str());
  std::fflush(stdout);
}

Trace::Trace() : origin_s_(Now()) {}

uint32_t Trace::Begin(const std::string& name, uint32_t parent) {
  const double now = Now();
  return Add(name, parent, now, now);
}

void Trace::End(uint32_t id) { spans_[id - 1].end_s = Now(); }

uint32_t Trace::Add(const std::string& name, uint32_t parent, double start_s,
                    double end_s, int64_t rid) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.rid = rid;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return static_cast<uint32_t>(spans_.size());
}

void Trace::Arg(uint32_t id, const std::string& key, double value) {
  spans_[id - 1].num_args[key] = value;
}

void Trace::Arg(uint32_t id, const std::string& key, const std::string& value) {
  spans_[id - 1].str_args[key] = value;
}

bool Trace::Write(const std::string& path, const RunOptions& options) const {
  std::ofstream out(path);
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed << ", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"name\": " << JsonString(s.name)
        << ", \"parent\": " << s.parent << ", \"rid\": " << s.rid
        << ", \"start_us\": " << JsonNumber((s.start_s - origin_s_) * 1e6)
        << ", \"end_us\": " << JsonNumber((s.end_s - origin_s_) * 1e6)
        << ", \"args\": {";
    bool first = true;
    for (const auto& [key, value] : s.num_args) {
      out << (first ? "" : ", ") << JsonString(key) << ": " << JsonNumber(value);
      first = false;
    }
    for (const auto& [key, value] : s.str_args) {
      out << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
      first = false;
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
