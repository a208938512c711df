// perfbench: one workload, one seed, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//   perfbench --self-test
//
// Human-readable lines go to stdout first; the last line is the JSON
// result {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return perfbench::RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-dir") {
      args.trace_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (!have_workload || args.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  perfbench::RunResult result;
  if (!perfbench::RunWorkload(args, &result)) return 1;
  result.metrics.PrintHuman(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.Json().c_str());
  return 0;
}
