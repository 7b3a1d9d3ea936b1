#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace e2ebench {

/// One timed call into a layer, recorded by the benchmark around its own
/// call. `parent` is the id of the enclosing span (0 at the top level);
/// spans of one request (a query, a session, a training unit) share
/// `request`.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;  ///< steady clock, relative to the recorder's epoch
  int64_t end_ns = 0;

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1000.0;
  }
};

/// Keeps spans in memory for the whole run; WriteJsonLines writes them out
/// at exit, one JSON object per line. Thread-compatible: the benchmark
/// records from its single calling thread only.
class SpanRecorder {
 public:
  SpanRecorder();

  uint64_t Begin(std::string_view name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations in microseconds of every finished span called `name`.
  std::vector<double> DurationsUs(std::string_view name) const;

  std::string ToJsonLines() const;
  zerodb::Status WriteJsonLines(const std::string& path) const;
  static zerodb::StatusOr<std::vector<SpanRecord>> ParseJsonLines(
      const std::string& text);

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;  ///< index = id - 1
};

/// Records one span for its scope; a null recorder records nothing, so the
/// untraced run pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name,
             uint64_t parent = 0, uint64_t request = 0)
      : recorder_(recorder),
        id_(recorder == nullptr ? 0
                                : recorder->Begin(name, parent, request)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
