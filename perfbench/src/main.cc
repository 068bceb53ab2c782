// perfbench: one process per benchmark run. perfbench/run.py builds it and
// passes the run's flags through; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE] [--tiny]
//
// The last stdout line is the run's result JSON. A traced run writes its
// spans to --trace-out and leaves the per-layer metrics to run.py.

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "probes.h"
#include "util.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0.0 ||
      (options.trace && options.trace_out.empty())) {
    std::fprintf(stderr,
                 "perfbench: --work-dir, a positive --seconds and, with "
                 "--trace 1, --trace-out are required\n");
    return 2;
  }
  const std::string& w = options.workload;
  const bool inmem = w == "inmem-deep" || w == "inmem-wide";
  if (!inmem && w != "external-tight" && w != "serve-open") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", w.c_str());
    return 2;
  }
  // Poll timeouts wake on time: the serving generator keeps a schedule.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (options.trace) return perfbench::RunTraced(options);
  if (inmem) return perfbench::RunInmem(options);
  if (w == "external-tight") return perfbench::RunExternal(options);
  return perfbench::RunServe(options);
}
