// End-to-end benchmark of zerodb. One invocation runs one workload:
//
//   e2ebench --workload train|whatif --seed N --seconds S --trace 0|1
//            [--threads T] [--spans PATH]
//
// and prints one JSON result line last on standard output. See README.md.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "e2ebench: " << problem
            << "\nusage: e2ebench --workload train|whatif --seed N "
               "--seconds S --trace 0|1 [--threads T] [--spans PATH]\n";
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  e2ebench::BenchOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      if (!e2ebench::KnownWorkload(value)) {
        return Usage("unknown workload " + value);
      }
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) return Usage("bad --seed " + value);
      options.seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 3600) {
        return Usage("bad --seconds " + value);
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--threads") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 256) {
        return Usage("bad --threads " + value);
      }
      options.threads = static_cast<size_t>(number);
    } else if (flag == "--spans") {
      options.span_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return Usage("--workload is required");
  return e2ebench::RunBenchmark(options, process_start);
}
