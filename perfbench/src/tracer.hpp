// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each call it makes into a layer's
// public functions. A span keeps its name, start, end and the span that was
// open when it began (its parent), all on the benchmark's main thread.
// Nothing is written while the workload runs; write_chrome_trace() dumps the
// spans at exit.
// Layer self time is a span's duration minus the time its child spans
// cover, summed over every span whose name starts with "<layer>.".
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string: "<layer>.<call>"
    double start_s;    ///< seconds since the tracer was built
    double end_s;
    int parent;        ///< index of the enclosing span, -1 for a root
  };

  /// Opens a span on construction and closes it on destruction; does
  /// nothing while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), idx_(t.begin(name)) {}
    ~Scope() { t_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Switches recording on or off between spans (the traced run alternates
  /// to measure the tracing overhead). Must not be called inside a span.
  void set_enabled(bool on) { enabled_ = on; }

  [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }

  /// Durations of every closed span with exactly this name, in order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Self time per layer (the name up to the first '.').
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Sum of root-span durations (the traced wall time).
  [[nodiscard]] double root_seconds() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, microseconds,
  /// with the parent index in args). Returns false on an I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  int begin(const char* name);
  void end(int idx);
  [[nodiscard]] double now_s() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench
