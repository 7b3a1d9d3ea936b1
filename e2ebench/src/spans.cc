#include "spans.h"

#include "obs/export.h"
#include "obs/json.h"

namespace e2ebench {

using zerodb::obs::JsonValue;

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint64_t SpanRecorder::Begin(std::string_view name, uint64_t parent,
                             uint64_t request) {
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::string(name);
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = NowNs();
}

std::vector<double> SpanRecorder::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(span.duration_us());
  }
  return out;
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  for (const SpanRecord& span : spans_) {
    JsonValue line = JsonValue::Object();
    line.Set("id", static_cast<int64_t>(span.id));
    line.Set("parent", static_cast<int64_t>(span.parent));
    line.Set("request", static_cast<int64_t>(span.request));
    line.Set("name", span.name);
    line.Set("start_ns", span.start_ns);
    line.Set("end_ns", span.end_ns);
    out += line.Dump();
    out += '\n';
  }
  return out;
}

zerodb::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  return zerodb::obs::WriteFileAtomic(path, ToJsonLines());
}

zerodb::StatusOr<std::vector<SpanRecord>> SpanRecorder::ParseJsonLines(
    const std::string& text) {
  std::vector<SpanRecord> spans;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    ZDB_ASSIGN_OR_RETURN(JsonValue value, JsonValue::Parse(line));
    const char* keys[] = {"id", "parent", "request", "name", "start_ns",
                          "end_ns"};
    for (const char* key : keys) {
      if (value.Find(key) == nullptr) {
        return zerodb::Status::InvalidArgument(std::string("span lacks ") +
                                               key);
      }
    }
    SpanRecord span;
    span.id = static_cast<uint64_t>(value.Find("id")->AsInt());
    span.parent = static_cast<uint64_t>(value.Find("parent")->AsInt());
    span.request = static_cast<uint64_t>(value.Find("request")->AsInt());
    span.name = value.Find("name")->AsString();
    span.start_ns = value.Find("start_ns")->AsInt();
    span.end_ns = value.Find("end_ns")->AsInt();
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace e2ebench
