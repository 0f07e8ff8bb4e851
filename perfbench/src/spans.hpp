// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call into a layer's public function: its name (the
// layer is the part before the first '.'), start and end on the steady
// clock, the enclosing span, and the id of the request it served (a plan
// cell, or a workload group for work shared by a workload's cells).
// Spans stay in memory until the run ends; then `summarize` turns them
// into per-layer self time and `chrome_trace_json` into a trace-event
// file that Perfetto (ui.perfetto.dev) or chrome://tracing opens.
//
// The recorder is single-threaded by design: the traced run is serial,
// so a stack of open spans is enough to know each span's parent.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string id;   // request id shared by the spans of one cell/group
  int parent = -1;  // index into the span list; -1 for a root
  double start_us = 0.0;
  double end_us = 0.0;

  [[nodiscard]] double ms() const { return (end_us - start_us) / 1000.0; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  // Closes the span it opened when destroyed.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::size_t index) : rec_(rec), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { rec_.close(index_); }

   private:
    SpanRecorder& rec_;
    std::size_t index_;
  };

  [[nodiscard]] Scope open(std::string name, std::string id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::size_t index);
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
};

struct LayerTime {
  double total_ms = 0.0;  // summed span durations
  double self_ms = 0.0;   // durations minus the time child spans cover
  std::size_t calls = 0;
};

// Per-name and per-layer time of a span list.  A layer's self time is
// the sum of its spans' self times; over all layers the self times add
// up to the summed duration of the root spans.
struct SpanSummary {
  std::map<std::string, LayerTime> by_name;
  std::map<std::string, LayerTime> by_layer;
  double root_ms = 0.0;
};

[[nodiscard]] SpanSummary summarize(const std::vector<Span>& spans);

[[nodiscard]] std::string layer_of(const std::string& span_name);

// Chrome trace-event JSON ("X" complete events, one process, one thread).
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
