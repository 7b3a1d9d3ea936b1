// Self-tests of the benchmark: every correctness check fails when it is fed
// one corrupted value (so none is vacuous), and the result-line printer and
// the span writer round-trip. Run: e2ebench_selftest [scratch-dir]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ++failures;                                                        \
      std::cerr << __FILE__ << ":" << __LINE__ << ": FAILED: " #cond "\n"; \
    }                                                                    \
  } while (0)

using e2ebench::AdvisorResultValid;
using e2ebench::AllEqual;
using e2ebench::AllFinitePositive;
using e2ebench::AllRelClose;
using e2ebench::BitIdenticalHistory;
using e2ebench::LossDecreased;
using e2ebench::ModelBeatsBaseline;
using e2ebench::SameResultMultiset;

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

void TestModelBeatsBaseline() {
  EXPECT(ModelBeatsBaseline(1.20, 1.32));
  EXPECT(!ModelBeatsBaseline(1.40, 1.32));  // model corrupted
  EXPECT(!ModelBeatsBaseline(1.20, 1.10));  // baseline corrupted
  EXPECT(!ModelBeatsBaseline(kNaN, 1.32));
  EXPECT(!ModelBeatsBaseline(0.5, 1.32));  // a q-error is never below 1
}

void TestLossDecreased() {
  EXPECT(LossDecreased({0.42, 0.20, 0.09}));
  EXPECT(!LossDecreased({0.42, 0.20, 0.50}));
  EXPECT(!LossDecreased({0.42, kNaN, 0.09}));
  EXPECT(!LossDecreased({0.42}));
}

zerodb::exec::RowBatch Batch(
    std::vector<zerodb::plan::OutputColumn> schema,
    std::vector<std::vector<double>> columns) {
  zerodb::exec::RowBatch batch;
  batch.schema = std::move(schema);
  batch.columns = std::move(columns);
  return batch;
}

void TestSameResultMultiset() {
  const zerodb::plan::OutputColumn t0{"t", 0, false};
  const zerodb::plan::OutputColumn u1{"u", 1, false};
  const auto a = Batch({t0, u1}, {{1, 2, 2}, {10, 20, 30}});
  // Same rows, columns swapped and rows permuted.
  const auto b = Batch({u1, t0}, {{30, 10, 20}, {2, 1, 2}});
  EXPECT(SameResultMultiset(a, b));
  // An aggregate summed in another order.
  const auto c = Batch({u1, t0}, {{30, 10, 20 * (1 + 1e-12)}, {2, 1, 2}});
  EXPECT(SameResultMultiset(a, c));
  const auto corrupted = Batch({u1, t0}, {{30, 10, 21}, {2, 1, 2}});
  EXPECT(!SameResultMultiset(a, corrupted));
  const auto extra = Batch({u1, t0}, {{30, 10, 20, 20}, {2, 1, 2, 2}});
  EXPECT(!SameResultMultiset(a, extra));
  const auto other_column = Batch({u1, {"t", 1, false}}, {{30, 10, 20}, {2, 1, 2}});
  EXPECT(!SameResultMultiset(a, other_column));
}

void TestBitIdenticalHistory() {
  std::vector<zerodb::obs::EpochStat> a(3);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i].epoch = i + 1;
    a[i].train_loss = 0.5 / static_cast<double>(i + 1);
    a[i].val_loss = 0.6 / static_cast<double>(i + 1);
    a[i].grad_norm = 1.0 + static_cast<double>(i);
  }
  EXPECT(BitIdenticalHistory(a, a));
  auto b = a;
  b[1].val_loss = std::nextafter(b[1].val_loss, 1.0);  // one ulp
  EXPECT(!BitIdenticalHistory(a, b));
  auto c = a;
  c.pop_back();
  EXPECT(!BitIdenticalHistory(a, c));
  EXPECT(!BitIdenticalHistory({}, {}));
}

void TestAllFinitePositive() {
  EXPECT(AllFinitePositive({0.3, 12.0}));
  EXPECT(!AllFinitePositive({0.3, 0.0}));
  EXPECT(!AllFinitePositive({0.3, -1.0}));
  EXPECT(!AllFinitePositive({0.3, kInf}));
  EXPECT(!AllFinitePositive({kNaN}));
  EXPECT(!AllFinitePositive({}));
}

void TestAllEqual() {
  EXPECT(AllEqual({1, 2, 3}, {1, 2, 3}));
  EXPECT(!AllEqual({1, 2, 3}, {1, 2, 4}));
  EXPECT(!AllEqual({}, {}));
}

void TestAllRelClose() {
  EXPECT(AllRelClose({100.0, 2.0}, {100.0 * (1 + 1e-6), 2.0}, 1e-5));
  EXPECT(!AllRelClose({100.0, 2.0}, {100.0 * (1 + 1e-4), 2.0}, 1e-5));
  EXPECT(!AllRelClose({100.0, 2.0}, {100.0, kNaN}, 1e-5));
  EXPECT(!AllRelClose({100.0}, {100.0, 2.0}, 1e-5));
}

void TestAdvisorResultValid() {
  const std::vector<std::string> candidates = {"title.3", "cast_info.2",
                                               "movie_info.1", "title.5"};
  EXPECT(AdvisorResultValid(100.0, 80.0, {"title.3", "title.5"}, 3,
                            candidates));
  EXPECT(AdvisorResultValid(100.0, 100.0, {}, 3, candidates));
  EXPECT(!AdvisorResultValid(100.0, 101.0, {"title.3"}, 3, candidates));
  EXPECT(!AdvisorResultValid(100.0, 80.0,
                             {"title.3", "title.5", "cast_info.2",
                              "movie_info.1"},
                             3, candidates));
  EXPECT(!AdvisorResultValid(100.0, 80.0, {"title.4"}, 3, candidates));
  EXPECT(!AdvisorResultValid(100.0, kNaN, {}, 3, candidates));
}

void TestStats() {
  EXPECT(e2ebench::Median({3, 1, 2}) == 2);
  EXPECT(e2ebench::Median({4, 1, 2, 3}) == 2.5);
  EXPECT(e2ebench::MeanOfStratumMedians({{1, 2, 3}, {}, {10, 30}}) == 11);
  EXPECT(e2ebench::MeanOfStratumMedians({}) == 0);
  EXPECT(e2ebench::Quantile({1, 2, 3, 4, 5}, 1.0) == 5);
  EXPECT(e2ebench::TailSupported(1000, 0.99));
  EXPECT(!e2ebench::TailSupported(999, 0.99));
  EXPECT(!e2ebench::TailSupported(39, 0.5));
  const e2ebench::LineFit fit = e2ebench::FitLine({0, 1, 2}, {1, 3, 5});
  EXPECT(std::fabs(fit.slope - 2.0) < 1e-12);
  EXPECT(std::fabs(fit.intercept - 1.0) < 1e-12);
  EXPECT(e2ebench::QError(2.0, 1.0) == 2.0);
  EXPECT(e2ebench::QError(1.0, 4.0) == 4.0);
}

void TestResultLineRoundTrip() {
  e2ebench::RunResult result;
  result.correct = true;
  result.attempted = 12345;
  result.failed = 0;
  result.metrics = {{"latency_ms", 1.2034567890123457, "ms"},
                    {"setup_s", 0.1 + 0.2, "s"},
                    {"estimates_per_s", 15885.280756165932, "queries/s"}};
  const std::string line = e2ebench::FormatResultLine(result);
  EXPECT(line.find('\n') == std::string::npos);
  zerodb::StatusOr<e2ebench::RunResult> parsed =
      e2ebench::ParseResultLine(line);
  EXPECT(parsed.ok());
  if (!parsed.ok()) return;
  EXPECT(parsed->correct == result.correct);
  EXPECT(parsed->attempted == result.attempted);
  EXPECT(parsed->failed == result.failed);
  EXPECT(parsed->metrics.size() == result.metrics.size());
  for (size_t i = 0; i < parsed->metrics.size() && i < result.metrics.size();
       ++i) {
    EXPECT(parsed->metrics[i].name == result.metrics[i].name);
    EXPECT(parsed->metrics[i].value == result.metrics[i].value);  // bitwise
    EXPECT(parsed->metrics[i].unit == result.metrics[i].unit);
  }
  EXPECT(!e2ebench::ParseResultLine("{\"correct\": true}").ok());
  EXPECT(!e2ebench::ParseResultLine("not json").ok());
}

void TestSpanRoundTrip(const std::string& dir) {
  e2ebench::SpanRecorder recorder;
  {
    e2ebench::ScopedSpan outer(&recorder, "serve.query", 0, 7);
    e2ebench::ScopedSpan inner(&recorder, "sql.parse", outer.id(), 7);
  }
  { e2ebench::ScopedSpan off(nullptr, "ignored"); }
  EXPECT(recorder.spans().size() == 2);
  EXPECT(recorder.spans()[1].parent == recorder.spans()[0].id);
  EXPECT(recorder.spans()[0].end_ns >= recorder.spans()[1].end_ns);
  EXPECT(recorder.DurationsUs("sql.parse").size() == 1);

  const std::string path = dir + "/selftest_spans.jsonl";
  EXPECT(recorder.WriteJsonLines(path).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  zerodb::StatusOr<std::vector<e2ebench::SpanRecord>> parsed =
      e2ebench::SpanRecorder::ParseJsonLines(text.str());
  EXPECT(parsed.ok());
  if (!parsed.ok()) return;
  EXPECT(parsed->size() == recorder.spans().size());
  for (size_t i = 0; i < parsed->size() && i < recorder.spans().size(); ++i) {
    const e2ebench::SpanRecord& a = (*parsed)[i];
    const e2ebench::SpanRecord& b = recorder.spans()[i];
    EXPECT(a.id == b.id && a.parent == b.parent && a.request == b.request &&
           a.name == b.name && a.start_ns == b.start_ns &&
           a.end_ns == b.end_ns);
  }
  std::remove(path.c_str());
  EXPECT(!e2ebench::SpanRecorder::ParseJsonLines("{\"id\": 1}\n").ok());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  TestModelBeatsBaseline();
  TestLossDecreased();
  TestSameResultMultiset();
  TestBitIdenticalHistory();
  TestAllFinitePositive();
  TestAllEqual();
  TestAllRelClose();
  TestAdvisorResultValid();
  TestStats();
  TestResultLineRoundTrip();
  TestSpanRoundTrip(dir);
  if (failures > 0) {
    std::cerr << failures << " self-test expectation(s) failed\n";
    return 1;
  }
  std::cout << "e2ebench self-tests passed\n";
  return 0;
}
