// Telemetry: named counters, gauges with sampled timelines, log-bucketed
// histograms, RAII wall-clock timers, and a span log for trace export.
//
// The registry answers "how do simulator internals evolve during a run" —
// the companion to the Recorder's end-of-run aggregates; the batch-system
// metrics come from a stats::TelemetrySink observer, and the profiler owns
// the simulator's wall-clock phases. Collection follows the logger's
// pattern: a process-wide enabled flag, off by default. Handles returned by
// the registry are stable until clear(); instrumented components cache
// them, so clear the global registry only between simulations, never during
// one.
//
// All durations are wall-clock seconds (std::chrono::steady_clock); gauge
// sample timestamps are simulation seconds. The simulator is single-threaded
// and so is the registry.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/json.h"

namespace elastisim::telemetry {

namespace detail {
// elsim-lint: allow(mutable-static) -- toggled once at process start before engines run; instrumentation sites read it on the hot path
inline bool g_enabled = false;
}  // namespace detail

/// Process-wide collection switch. Instrumentation sites test this before
/// touching the clock or the registry.
inline bool enabled() noexcept { return detail::g_enabled; }
inline void set_enabled(bool on) noexcept { detail::g_enabled = on; }

/// Monotonic wall-clock seconds since the first telemetry clock query in
/// this process. All spans and timers share this origin.
double wall_now() noexcept;

/// Monotonically increasing event tally.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

struct GaugeSample {
  double time;  // simulation seconds
  double value;
};

/// Point-in-time value plus a bounded timeline of samples. When the timeline
/// reaches kMaxSamples, every other retained sample is dropped and the
/// recording stride doubles, so long runs keep an evenly thinned timeline
/// instead of growing without bound (or truncating the tail). The final
/// sample is always the most recent update: off-stride updates refresh a
/// provisional tail entry instead of vanishing.
class Gauge {
 public:
  void set(double sim_time, double value);

  double value() const noexcept { return value_; }
  double min() const noexcept { return updates_ ? min_ : 0.0; }
  double max() const noexcept { return updates_ ? max_ : 0.0; }
  std::uint64_t updates() const noexcept { return updates_; }
  const std::vector<GaugeSample>& samples() const noexcept { return samples_; }

  static constexpr std::size_t kMaxSamples = 65536;

 private:
  double value_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t updates_ = 0;
  std::uint64_t stride_ = 1;
  /// samples_.back() is an off-stride refresh awaiting replacement.
  bool tail_provisional_ = false;
  std::vector<GaugeSample> samples_;
};

/// Log-bucketed histogram of positive values (power-of-two buckets spanning
/// ~1e-12 .. 1e12, wide enough for nanosecond timers through gigabyte
/// counts). Percentiles interpolate linearly inside a bucket and are clamped
/// to the observed [min, max], so a constant series reports itself exactly;
/// otherwise the error is bounded by one bucket (a factor of two).
/// Non-positive values land in a dedicated zero bucket.
class Histogram {
 public:
  void record(double value) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  /// p in [0, 1], clamped. Returns 0 when empty.
  double percentile(double p) const noexcept;

 private:
  static constexpr int kMinExp = -40;  // bucket floor 2^-40 ~ 9e-13
  static constexpr int kMaxExp = 40;   // bucket floor 2^40 ~ 1.1e12
  static constexpr int kBuckets = kMaxExp - kMinExp + 1;

  static int bucket_index(double value) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t zero_ = 0;  // values <= 0
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// RAII wall-clock scope. A null sink disables the timer entirely — no clock
/// call on either end — which is how disabled-mode stays free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* sink) : sink_(sink) {
    if (sink_) start_ = wall_now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { stop(); }

  /// Records once; further calls are no-ops. Returns the elapsed seconds
  /// (0 when disabled).
  double stop() {
    if (!sink_) return 0.0;
    const double elapsed = wall_now() - start_;
    sink_->record(elapsed);
    sink_ = nullptr;
    return elapsed;
  }

 private:
  Histogram* sink_;
  double start_ = 0.0;
};

/// One named wall-clock slice (e.g. one bench::run simulation); telemetry.json
/// reports how many were recorded and dropped.
struct Span {
  std::string name;
  double wall_start_s;
  double dur_s;
  /// Items covered by the slice (events dispatched, jobs written, ...).
  std::uint64_t items;
};

/// Append-only span list, capped so runaway instrumentation cannot exhaust
/// memory; spans beyond the cap are counted but dropped.
class SpanLog {
 public:
  void add(std::string name, double wall_start_s, double dur_s, std::uint64_t items = 0);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  void clear();

  static constexpr std::size_t kMaxSpans = 65536;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Named metric store. Lookup creates on first use; references stay valid
/// until clear(). std::map keeps export order deterministic.
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  SpanLog& spans() noexcept { return spans_; }
  const SpanLog& spans() const noexcept { return spans_; }

  const std::map<std::string, Counter>& counters() const noexcept { return counters_; }
  const std::map<std::string, Gauge>& gauges() const noexcept { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const noexcept { return histograms_; }

  /// Drops every metric and span. Invalidates cached handles — only safe
  /// between simulations.
  void clear();

  /// Flat dump: {"counters": {...}, "gauges": {...}, "histograms": {...},
  /// "spans": {...}}. Histograms report count/sum/mean/min/max and
  /// p50/p90/p99; gauges report value/min/max and the sampled timeline as
  /// [time, value] pairs. This is the telemetry.json schema
  /// (docs/OBSERVABILITY.md).
  json::Value to_json() const;

  /// The process-wide registry all built-in instrumentation records into.
  static Registry& global();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  SpanLog spans_;
};

/// Times into the global registry when telemetry is enabled; free otherwise.
/// Usage: auto timer = telemetry::timed("phase.name");
inline ScopedTimer timed(const std::string& name) {
  return ScopedTimer(enabled() ? &Registry::global().histogram(name) : nullptr);
}

}  // namespace elastisim::telemetry
