// The four benchmark workloads and the benchmark's self-test.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSink metrics;
};

// False when the workload is unknown or could not be set up.
bool RunWorkload(const RunArgs& args, RunResult* result);

// Checks that the benchmark catches what it claims to catch. Returns
// the number of failed checks.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
