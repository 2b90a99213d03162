#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "metric_names.h"
#include "simd/backend.h"
#include "sys/perf_counters.h"

namespace perfbench {

Quantile quantile(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = values[lo] + (values[hi] - values[lo]) * frac;
  out.beyond = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), out.value));
  return out;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<double> time_to_target(std::span<const EvalPoint> curve,
                                     double target) {
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].p1 < target) continue;
    if (i == 0) return curve[0].seconds;
    const EvalPoint& a = curve[i - 1];
    const EvalPoint& b = curve[i];
    const double frac = (target - a.p1) / (b.p1 - a.p1);
    return a.seconds + frac * (b.seconds - a.seconds);
  }
  return std::nullopt;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds) {
  std::vector<double> out;
  if (rate <= 0.0 || seconds <= 0.0) return out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  std::uint64_t state = seed;
  auto next_uniform = [&state] {  // splitmix64 -> (0, 1]
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
  };
  double t = 0.0;
  while (true) {
    t += -std::log(next_uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

void wait_until(Clock::time_point when) {
  constexpr auto kSpin = std::chrono::microseconds(100);
  const auto now = Clock::now();
  if (when - now > kSpin) std::this_thread::sleep_until(when - kSpin);
  while (Clock::now() < when) {
  }
}

// ---- Tracer ----------------------------------------------------------------

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t group) {
  if (!enabled_) return;
  const std::uint64_t thread_key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = threads_.try_emplace(
      thread_key, static_cast<std::uint32_t>(threads_.size()));
  spans_.push_back(
      {name,
       std::chrono::duration_cast<std::chrono::nanoseconds>(
           start.time_since_epoch())
           .count(),
       std::chrono::duration_cast<std::chrono::nanoseconds>(
           end.time_since_epoch())
           .count(),
       id, parent, group, it->second});
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.emplace_back(name, value);
}

namespace {

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
double covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& parts,
                  std::int64_t lo, std::int64_t hi) {
  std::sort(parts.begin(), parts.end());
  double covered = 0.0;
  std::int64_t cursor = lo;
  for (auto [s, e] : parts) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += static_cast<double>(e - s);
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans_)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    Totals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    double self = dur;
    if (auto it = children.find(s.id); it != children.end())
      self -= covered_ns(it->second, s.start_ns, s.end_ns);
    ++t.spans;
    t.total_us += dur / 1e3;
    t.self_us += self / 1e3;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"group\":%llu}}",
                 first ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group));
    first = false;
  }
  std::fprintf(f, "\n],\"counts\":{");
  first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// ---- host probe ------------------------------------------------------------

HostNoise probe_host() {
  HostNoise out;
  // Ping-pong: every 200 us the pinger stamps a time and notifies; the
  // ponger records how late it woke. 2500 wakes give a p99 with 25
  // observations beyond it.
  constexpr int kWakes = 2500;
  constexpr auto kPeriod = std::chrono::microseconds(200);
  std::mutex mutex;
  std::condition_variable cv;
  Clock::time_point sent{};
  std::uint64_t seq = 0;
  bool done = false;
  std::vector<double> wake_us;
  wake_us.reserve(kWakes);
  std::thread ponger([&] {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      cv.wait(lock, [&] { return done || seq != seen; });
      if (seq != seen) {
        wake_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - sent)
                .count());
        seen = seq;
      }
      if (done) return;
    }
  });
  const auto start = Clock::now();
  for (int i = 1; i <= kWakes; ++i) {
    std::this_thread::sleep_until(start + i * kPeriod);
    {
      std::lock_guard<std::mutex> lock(mutex);
      sent = Clock::now();
      ++seq;
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  cv.notify_one();
  ponger.join();
  out.wake_p99_us = quantile(std::move(wake_us), 0.99);

  // A dependent multiply-add chain: latency-bound, so the rate tracks the
  // core's clock and not the memory system or the vector units.
  constexpr std::uint64_t kIters = 50'000'000;
  volatile double seed = 1.0;
  double x = seed;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) x = x * 0.999999999 + 1e-9;
  const double secs = seconds_between(t0, Clock::now());
  seed = x;
  out.compute_rate = static_cast<double>(kIters) / secs;
  return out;
}

std::string host_build_class() {
  std::ostringstream s;
  s << "nproc=" << std::thread::hardware_concurrency()
    << " simd_active=" << slide::simd::to_string(slide::simd::active_level())
    << " simd_detected="
    << slide::simd::to_string(slide::simd::detected_level())
    << " build=" << PERFBENCH_BUILD_KIND << " thp=" << slide::thp_mode()
    << " compiler=\"" << PERFBENCH_COMPILER << "\" flags=\""
    << PERFBENCH_FLAGS << "\"";
  return s.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Result ----------------------------------------------------------------

namespace {

std::span<const MetricName> mode_metrics(bool traced) {
  if (traced) return kPerLayer;
  return kEndToEnd;
}

const char* unit_of(bool traced, const std::string& name) {
  for (const MetricName& m : mode_metrics(traced))
    if (name == m.name) return m.unit;
  return nullptr;
}

}  // namespace

void Result::set(const std::string& name, double value, std::size_t samples) {
  if (unit_of(traced_, name) == nullptr)
    throw std::logic_error("perfbench: metric '" + name +
                           "' is not listed for this mode");
  values_[name] = {value, samples};
}

void Result::fail(const std::string& why, std::uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  failures_[why] += n;
}

bool Result::correct() const {
  if (failed_ != 0 || attempted_ == 0) return false;
  for (const MetricName& m : mode_metrics(traced_)) {
    const auto it = values_.find(m.name);
    if (it == values_.end() || !std::isfinite(it->second.value)) return false;
    if (!traced_ && it->second.value == 0.0) return false;
  }
  return true;
}

std::string Result::report() const {
  std::ostringstream s;
  char line[256];
  for (const MetricName& m : mode_metrics(traced_)) {
    const auto it = values_.find(m.name);
    if (it == values_.end()) {
      s << "metric " << m.name << " = (not measured)\n";
      continue;
    }
    std::snprintf(line, sizeof(line), "metric %-28s = %.6g %s", m.name,
                  it->second.value, m.unit);
    s << line;
    if (it->second.samples > 0) s << " (n=" << it->second.samples << ")";
    s << '\n';
  }
  s << "ops attempted=" << attempted_ << " failed=" << failed_ << '\n';
  for (const auto& [why, n] : failures_)
    s << "FAILED x" << n << ": " << why << '\n';
  return s.str();
}

std::string Result::json() const {
  std::ostringstream s;
  s << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const MetricName& m : mode_metrics(traced_)) {
    const auto it = values_.find(m.name);
    if (it == values_.end() || !std::isfinite(it->second.value)) continue;
    std::snprintf(num, sizeof(num), "%.17g", it->second.value);
    s << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << num
      << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::snprintf(num, sizeof(num), "%.17g", throughput_);
  s << "}, \"throughput_per_s\": " << num << "}";
  return s.str();
}

}  // namespace perfbench
