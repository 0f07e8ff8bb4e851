#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder::Scope SpanRecorder::open(std::string name, std::string id) {
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(*this, spans_.size() - 1);
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_us = now_us();
  open_.pop_back();
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

SpanSummary summarize(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.ms();

  SpanSummary sum;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = s.ms() - child_ms[i];
    for (LayerTime* t :
         {&sum.by_name[s.name], &sum.by_layer[layer_of(s.name)]}) {
      t->total_ms += s.ms();
      t->self_ms += self;
      ++t->calls;
    }
    if (s.parent < 0) sum.root_ms += s.ms();
  }
  return sum;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%s\","
                  "\"span\":%zu,\"parent\":%d}}%s\n",
                  s.name.c_str(), layer_of(s.name).c_str(), s.start_us,
                  s.end_us - s.start_us, s.id.c_str(), i, s.parent,
                  i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
