// Measurement helpers shared by the perfbench workloads: order statistics
// with their sample counts, time-to-target interpolation, the seeded
// open-loop arrival schedule, in-memory spans for the traced run, the
// host-noise probe, the host/build class, and the result record whose JSON
// form is the last line a run prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- order statistics ------------------------------------------------------

/// One order statistic and the sample it was read from. `beyond` counts
/// the observations strictly above `value`: a tail percentile is only worth
/// reporting when at least ten observations lie beyond it.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// The q-quantile (q in [0, 1]) by linear interpolation between closest
/// ranks. An empty sample gives {0, 0, 0}.
Quantile quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5).value;
}

double mean(std::span<const double> values);

// ---- time to target --------------------------------------------------------

/// One evaluation of the training curve: training wall time so far (the
/// evaluation itself excluded) and the P@1 measured there.
struct EvalPoint {
  double seconds = 0.0;
  double p1 = 0.0;
};

/// Training time at which the curve first reaches `target`, interpolated
/// linearly between the last point below the target and the first point at
/// or above it. nullopt when no point reaches the target. A first point
/// already at the target gives that point's time.
std::optional<double> time_to_target(std::span<const EvalPoint> curve,
                                     double target);

// ---- open-loop arrivals ----------------------------------------------------

/// Send offsets, in seconds from the start of a phase, of a Poisson arrival
/// process at `rate` per second lasting `seconds`. The same seed gives the
/// same schedule on every host (a private splitmix64 stream, independent of
/// the library's RNG).
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds);

/// Sleeps until `when`, spinning for the last stretch so the wake-up is not
/// at the mercy of the timer slack.
void wait_until(Clock::time_point when);

// ---- tracing ---------------------------------------------------------------

/// Spans recorded around the benchmark's calls into the library, kept in
/// memory and written out when the run ends. Each span has a name, start,
/// end, its own id, its parent's id (0 = none) and a group id: the training
/// step or request it belongs to. When disabled every call is a no-op, so
/// the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Reserves a span id (so children can name their parent before it ends).
  std::uint64_t next_id() noexcept {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Records a finished span. Thread-safe.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id, std::uint64_t parent, std::uint64_t group);
  /// Attaches a named count (a library counter read at the end of a phase).
  void count(const std::string& name, double value);

  struct Totals {
    std::size_t spans = 0;
    double total_us = 0.0;  // sum of durations
    double self_us = 0.0;   // sum of durations minus child coverage
  };
  /// Per-name totals. A span's self time is its duration minus the part of
  /// its interval covered by the union of its children's intervals.
  std::map<std::string, Totals> totals() const;

  /// Writes every span and count as Chrome trace-event JSON (loadable in
  /// chrome://tracing or Perfetto). Returns false if the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t group;
    std::uint32_t thread;
  };

  bool enabled_;
  std::atomic<std::uint64_t> ids_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, double>> counts_;
  std::map<std::uint64_t, std::uint32_t> threads_;  // thread hash -> index
};

/// RAII span: records [construction, destruction) when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t group,
             std::uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        group_(group),
        parent_(parent),
        id_(tracer.enabled() ? tracer.next_id() : 0),
        start_(tracer.enabled() ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (tracer_.enabled())
      tracer_.record(name_, start_, Clock::now(), id_, parent_, group_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t group_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
};

// ---- host noise and class --------------------------------------------------

/// A probe with no library code in it, run at the start of every run so a
/// noisy host can be told apart from a regression: a condition-variable
/// ping-pong at a fixed rate (the wake-up tail the hypervisor adds) and a
/// fixed single-thread dependent arithmetic loop (the core's speed).
struct HostNoise {
  Quantile wake_p99_us;
  double compute_rate = 0.0;  // loop iterations per second
};
HostNoise probe_host();

/// nproc, SIMD levels (active/detected), native or portable build, THP mode,
/// compiler and flags, as one line of `key=value` pairs.
std::string host_build_class();

/// Peak resident set of this process, MB (2^20 bytes).
double peak_rss_mb();

// ---- the result ------------------------------------------------------------

/// What one run reports: the operations attempted and failed, whether every
/// output checked out, and the metrics of the run's mode (end-to-end when
/// untraced, per-layer when traced; see metric_names.h). Filled in by the
/// workload's main thread only.
class Result {
 public:
  explicit Result(bool traced) : traced_(traced) {}

  /// Sets a metric of this run's mode (throws on a name the mode does not
  /// list). `samples` is the number of observations behind a timing, shown
  /// on the human-readable line; 0 for values that are not a statistic.
  void set(const std::string& name, double value, std::size_t samples = 0);
  /// Sets a per-layer metric; ignored in the untraced run.
  void layer(const std::string& name, double value, std::size_t samples = 0) {
    if (traced_) set(name, value, samples);
  }

  /// The workload's throughput (training samples or closed-loop answers
  /// per second), carried in the JSON line in both modes so run.py can
  /// compare the untraced and the traced run (the tracing overhead).
  void set_throughput(double per_s) { throughput_ = per_s; }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts failed operations; `why` is printed once per distinct reason.
  void fail(const std::string& why, std::uint64_t n = 1);

  /// True when nothing failed, at least one operation was attempted, every
  /// metric of the mode was set, and every value is finite (end-to-end
  /// values also nonzero).
  bool correct() const;
  /// One human-readable line per metric (name, value, unit, samples), then
  /// the operation counts and the failure reasons.
  std::string report() const;
  /// The result as one JSON line: correct, attempted, failed, metrics, and
  /// throughput_per_s (which run.py takes out before printing).
  std::string json() const;

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
  };
  bool traced_;
  double throughput_ = 0.0;
  std::map<std::string, Value> values_;
  std::map<std::string, std::uint64_t> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
