#include "report.h"

#include "obs/json.h"

namespace e2ebench {

using zerodb::obs::JsonValue;

std::string FormatResultLine(const RunResult& result) {
  JsonValue metrics = JsonValue::Object();
  for (const Metric& metric : result.metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    metrics.Set(metric.name, std::move(entry));
  }
  JsonValue root = JsonValue::Object();
  root.Set("correct", result.correct);
  root.Set("attempted", result.attempted);
  root.Set("failed", result.failed);
  root.Set("metrics", std::move(metrics));
  return root.Dump();
}

zerodb::StatusOr<RunResult> ParseResultLine(const std::string& line) {
  ZDB_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  const JsonValue* correct = root.Find("correct");
  const JsonValue* attempted = root.Find("attempted");
  const JsonValue* failed = root.Find("failed");
  const JsonValue* metrics = root.Find("metrics");
  if (correct == nullptr || attempted == nullptr || failed == nullptr ||
      metrics == nullptr || !metrics->is_object()) {
    return zerodb::Status::InvalidArgument("result line lacks a key");
  }
  RunResult result;
  result.correct = correct->AsBool();
  result.attempted = attempted->AsInt();
  result.failed = failed->AsInt();
  for (const auto& [name, entry] : metrics->members()) {
    const JsonValue* value = entry.Find("value");
    const JsonValue* unit = entry.Find("unit");
    if (value == nullptr || unit == nullptr || !value->is_number() ||
        !unit->is_string()) {
      return zerodb::Status::InvalidArgument("malformed metric " + name);
    }
    result.metrics.push_back(Metric{name, value->AsDouble(), unit->AsString()});
  }
  return result;
}

}  // namespace e2ebench
