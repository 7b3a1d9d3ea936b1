#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The one-line summary a run ends with: whether every correctness check
/// passed, how many operations were attempted and failed, and the metrics.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Renders `result` as a single-line JSON object:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics":
///  {"<name>": {"value": <v>, "unit": "<u>"}, ...}}. Values keep all 17
/// significant digits.
std::string FormatResultLine(const RunResult& result);

/// Parses a line produced by FormatResultLine (metrics keep their order).
zerodb::StatusOr<RunResult> ParseResultLine(const std::string& line);

}  // namespace e2ebench

#endif  // E2EBENCH_REPORT_H_
