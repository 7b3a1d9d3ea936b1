#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace e2ebench {

struct BenchOptions {
  std::string workload;  ///< "train" or "whatif"
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  size_t threads = 4;
  std::string span_path;  ///< where a traced run writes its spans
};

/// True for the workload names RunBenchmark accepts.
bool KnownWorkload(const std::string& name);

/// Runs one workload and prints its result line as the last line of
/// standard output. Returns the process exit code: 0 when every
/// correctness check passed, 1 otherwise.
int RunBenchmark(const BenchOptions& options,
                 std::chrono::steady_clock::time_point process_start);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
