#include "obs/trace.h"

#include <functional>
#include <sstream>
#include <thread>

namespace maxson::obs {

namespace {

uint64_t CurrentThreadId() {
  return std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000;
}

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void TraceRecorder::Record(TraceEvent event) {
  if (!enabled()) return;
  if (event.thread_id == 0) event.thread_id = CurrentThreadId();
  MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  MutexLock lock(mutex_);
  return events_;
}

size_t TraceRecorder::size() const {
  MutexLock lock(mutex_);
  return events_.size();
}

void TraceRecorder::Clear() {
  MutexLock lock(mutex_);
  events_.clear();
}

std::string TraceRecorder::ToChromeTraceJson() const {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  MutexLock lock(mutex_);
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) out << ",";
    out << "\n  {\"name\": \"" << EscapeJson(e.name) << "\", \"cat\": \""
        << EscapeJson(e.category) << "\", \"ph\": \"X\", \"ts\": "
        << e.start_us << ", \"dur\": " << e.duration_us
        << ", \"pid\": 1, \"tid\": " << e.thread_id << "}";
  }
  out << "\n]}\n";
  return out.str();
}

TraceSpan::TraceSpan(TraceRecorder* recorder, std::string name,
                     std::string category)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr),
      name_(std::move(name)),
      category_(std::move(category)) {
  if (recorder_ != nullptr) start_us_ = recorder_->NowMicros();
}

TraceSpan::~TraceSpan() {
  if (recorder_ == nullptr) return;
  TraceEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.start_us = start_us_;
  event.duration_us = recorder_->NowMicros() - start_us_;
  recorder_->Record(std::move(event));
}

}  // namespace maxson::obs
