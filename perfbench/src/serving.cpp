// churn-sharded: reads beside writes. A delicious-like checkpoint (Simhash
// K=9 L=50) booted as an S=4 sharded snapshot, served by one engine worker;
// a generator thread sends a seeded Poisson schedule through
// submit_callback while an updater grows, retires, trains and republishes
// on a fixed tick, then a closed loop keeps a fixed number of requests
// outstanding. At most three threads are busy at once: generator, worker
// and updater.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace slide;

constexpr int kSetups = 5;
/// Tables of a boot or publish are rebuilt on the calling thread alone, so
/// the updater is one busy thread beside the generator and the worker.
constexpr int kRebuildThreads = 1;
constexpr long kPrepIterations = 300;
constexpr int kPrepBatch = 128;
/// Open-loop rate: about a fifth of the parent's closed-loop capacity. At
/// 40% a neighbour on the host halving the worker's speed for a few seconds
/// built queues that moved the median latency up to sevenfold between
/// identical runs; at a fifth the latency stays service time, not backlog.
constexpr double kChurnRate = 1200.0;
/// Closed loop: four full micro-batches outstanding.
constexpr int kMaxBatch = 16;
constexpr int kOutstanding = 4 * kMaxBatch;
/// Length of the slices whose medians the serving metrics report.
constexpr double kWindowSeconds = 0.5;
constexpr double kTickSeconds = 1.5;
constexpr Index kChurnLabels = 8;
constexpr std::size_t kChurnSamples = 64;
/// Queries of the traced run's exact evaluation call.
constexpr std::size_t kEvalQueries = 500;
constexpr Index kNoLabel = std::numeric_limits<Index>::max();

ServeConfig serve_config(std::uint64_t seed) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = kMaxBatch;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 1 << 16;
  cfg.default_top_k = 1;
  cfg.seed = derive_seed(seed, 20);
  return cfg;
}

/// One served answer as the worker's callback saw it.
struct Answer {
  std::uint32_t phase;
  std::uint32_t request;
  Index label;  // top-1; kNoLabel when the answer was empty
  std::uint64_t version;
  double engine_us;
  Clock::time_point done;
};

/// Answers arrive on the engine's worker thread; the phases read them once
/// every accepted request has been answered.
class AnswerLog {
 public:
  void add(const Answer& a) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      answers_.push_back(a);
    }
    done_.fetch_add(1, std::memory_order_release);
  }
  std::uint64_t done() const { return done_.load(std::memory_order_acquire); }
  /// Waits until `n` answers have arrived; false after `timeout_s`.
  bool wait_for(std::uint64_t n, double timeout_s) const {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (done() < n) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }
  std::vector<Answer> answers() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return answers_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Answer> answers_;
  std::atomic<std::uint64_t> done_{0};
};

/// The queries a run sends: the held-out split in a seed-chosen order,
/// repeated. Every run covers the whole split, so served P@1 is measured on
/// the same fixed test set whatever the seed.
class QueryStream {
 public:
  QueryStream(const Dataset& data, std::uint64_t seed) : data_(data) {
    order_.resize(data.size());
    for (std::size_t i = 0; i < order_.size(); ++i)
      order_[i] = static_cast<std::uint32_t>(i);
    Rng rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }
  const Sample& operator[](std::uint32_t request) const {
    return data_[order_[request % order_.size()]];
  }

 private:
  const Dataset& data_;
  std::vector<std::uint32_t> order_;
};

bool submit(InferenceEngine& engine, const QueryStream& queries,
            std::uint32_t phase, std::uint32_t request, AnswerLog& log) {
  const Sample& q = queries[request];
  return engine.submit_callback(
      q.features,
      [&log, phase, request](Prediction p) {
        log.add({phase, request, p.labels.empty() ? kNoLabel : p.labels[0],
                 p.snapshot_version, p.latency_us, Clock::now()});
      },
      ServeOptions{.top_k = 1});
}

/// A thread beside the traffic (generator, updater). It is joined, after
/// `stop` is set, when finish() is called or the object is destroyed, so an
/// exception on the main thread never leaves it running; an exception in
/// `body` is rethrown by finish().
class SideThread {
 public:
  template <class Body>
  SideThread(std::atomic<bool>& stop, Body body)
      : stop_(stop), thread_([this, body = std::move(body)]() mutable {
          try {
            body();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~SideThread() { join(); }
  SideThread(const SideThread&) = delete;
  SideThread& operator=(const SideThread&) = delete;

  void finish() {
    join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::atomic<bool>& stop_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the members it uses
};

/// What the generator saw for one open-loop request.
struct Sent {
  Clock::time_point due;
  double late_us = 0.0;
  double submit_us = 0.0;
  bool accepted = false;
};

struct Phase {
  explicit Phase(std::uint32_t phase_id) : id(phase_id) {}
  std::uint32_t id;
  std::vector<Sent> sent;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::vector<double> window_qps;  // closed loop only
  double capacity_qps = 0.0;
};

/// Open loop: sends on `schedule` (offsets from now). Runs on the calling
/// thread.
void open_loop(InferenceEngine& engine, const QueryStream& queries,
               std::span<const double> schedule, AnswerLog& log,
               Tracer& tracer, Phase& phase) {
  phase.sent.reserve(schedule.size());
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Sent s;
    s.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i]));
    wait_until(s.due);
    const auto t0 = Clock::now();
    s.accepted =
        submit(engine, queries, phase.id, static_cast<std::uint32_t>(i), log);
    const auto t1 = Clock::now();
    s.late_us = std::chrono::duration<double, std::micro>(t0 - s.due).count();
    s.submit_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (tracer.enabled())
      tracer.record("serve.submit", t0, t1, tracer.next_id(), 0,
                    (std::uint64_t{phase.id} << 32) | i);
    (s.accepted ? phase.accepted : phase.rejected) += 1;
    phase.sent.push_back(s);
  }
}

/// Closed loop: keeps kOutstanding requests in flight for `seconds`.
/// Capacity is the median, over windows of kWindowSeconds, of the answers
/// completed per second: a stall of the host shows in one window, not in
/// the result.
void closed_loop(InferenceEngine& engine, const QueryStream& queries,
                 double seconds, AnswerLog& log, Phase& phase) {
  const std::uint64_t base = log.done();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto window_start = start;
  std::uint64_t window_base = base;
  std::uint32_t next = 0;
  while (true) {
    const auto now = Clock::now();
    if (seconds_between(window_start, now) >= kWindowSeconds || now >= end) {
      const std::uint64_t done = log.done();
      phase.window_qps.push_back(static_cast<double>(done - window_base) /
                                 seconds_between(window_start, now));
      window_start = now;
      window_base = done;
      if (now >= end) break;
    }
    if (phase.accepted - (log.done() - base) >= kOutstanding) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    (submit(engine, queries, phase.id, next++, log) ? phase.accepted
                                                    : phase.rejected) += 1;
  }
  phase.capacity_qps = median(phase.window_qps);
}

/// Served label-space facts the correctness check needs.
struct Universe {
  Index initial = 0;
  std::map<std::uint64_t, Index> size_at;     // version -> output dim
  std::map<Index, std::uint64_t> retired_at;  // id -> version retired in
  Index size(std::uint64_t version) const {
    auto it = size_at.upper_bound(version);
    return it == size_at.begin() ? initial : std::prev(it)->second;
  }
};

/// Quality and correctness over every answer of the run.
struct AnswerCheck {
  std::uint64_t answers = 0, hits = 0, empty = 0, out_of_range = 0,
                retired = 0;
};

AnswerCheck check_answers(const std::vector<Answer>& answers,
                          const QueryStream& queries,
                          const Universe& universe) {
  AnswerCheck c;
  for (const Answer& a : answers) {
    ++c.answers;
    if (a.label == kNoLabel) {
      ++c.empty;
      continue;
    }
    if (a.label >= universe.size(a.version)) ++c.out_of_range;
    if (auto it = universe.retired_at.find(a.label);
        it != universe.retired_at.end() && a.version >= it->second)
      ++c.retired;
    const auto& labels = queries[a.request].labels;
    if (std::binary_search(labels.begin(), labels.end(), a.label)) ++c.hits;
  }
  return c;
}

/// Time of the first answer served at `version`, if any.
std::optional<Clock::time_point> first_answer_at(
    const std::vector<Answer>& answers, std::uint64_t version) {
  std::optional<Clock::time_point> first;
  for (const Answer& a : answers)
    if (a.version == version && (!first || a.done < *first)) first = a.done;
  return first;
}

/// Open-loop latency (from each request's due time) and generator lateness.
/// `window_p50_us` holds the median latency of the requests due in each
/// kWindowSeconds slice of the phase: a host stall inflates the windows it
/// hits, and the median window does not move with it.
struct OpenLoopStats {
  std::vector<double> latency_us, late_us, submit_us, engine_us, window_p50_us;
};

OpenLoopStats open_loop_stats(const Phase& phase,
                              const std::vector<Answer>& answers) {
  OpenLoopStats s;
  std::vector<std::vector<double>> windows;
  for (const Answer& a : answers) {
    if (a.phase != phase.id) continue;
    const Sent& sent = phase.sent[a.request];
    const double us =
        std::chrono::duration<double, std::micro>(a.done - sent.due).count();
    s.latency_us.push_back(us);
    s.engine_us.push_back(a.engine_us);
    const auto w = static_cast<std::size_t>(
        seconds_between(phase.sent.front().due, sent.due) / kWindowSeconds);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(us);
  }
  for (auto& w : windows)
    if (!w.empty()) s.window_p50_us.push_back(median(std::move(w)));
  for (const Sent& sent : phase.sent) {
    s.late_us.push_back(sent.late_us);
    s.submit_us.push_back(sent.submit_us);
  }
  return s;
}

/// Everything a serving run reports once the traffic has stopped.
struct ServingRun {
  std::vector<double> setups;
  Phase open{1};
  Phase closed{2};
  std::vector<Answer> answers;
  Universe universe;
  std::uint64_t changes = 0;           // ticks that published in traffic
  std::uint64_t unserved_changes = 0;  // never answered from (a failure)
  std::uint64_t missing_labels = 0;    // ticks whose labels were not served
  std::vector<double> ready_s;         // per answered tick
  std::vector<double> update_ms, publish_ms, swap_wait_ms;
};

void report_serving(const ServingRun& run, const QueryStream& queries,
                    const InferenceEngine& engine, Result& result,
                    Tracer& tracer) {
  const ServeStats stats = engine.stats();
  const AnswerCheck check = check_answers(run.answers, queries, run.universe);
  const std::uint64_t accepted = run.open.accepted + run.closed.accepted;
  result.attempt(accepted + run.open.rejected + run.closed.rejected +
                 run.changes);
  result.fail("request rejected at admission",
              run.open.rejected + run.closed.rejected);
  result.fail("accepted request never answered",
              accepted > check.answers ? accepted - check.answers : 0);
  result.fail("serving error", stats.errors);
  result.fail("request shed", stats.shed_total);
  result.fail("empty answer", check.empty);
  result.fail("answer outside the served label range", check.out_of_range);
  result.fail("answer contains a retired label", check.retired);
  result.fail("model change never reached an answer", run.unserved_changes);
  result.fail("new labels missing from the published snapshot",
              run.missing_labels);

  const OpenLoopStats open = open_loop_stats(run.open, run.answers);
  const Quantile p50 = quantile(open.latency_us, 0.5);
  const double window_p50 = median(open.window_p50_us);
  const Quantile p99 = quantile(open.latency_us, 0.99);
  const Quantile p999 = quantile(open.latency_us, 0.999);
  const Quantile late = quantile(open.late_us, 0.99);
  const double served_p1 =
      check.answers ? double(check.hits) / double(check.answers) : 0.0;
  std::printf("open loop: %zu answers | p50 %.1f us (median window %.1f us "
              "of %zu) | p99 %.1f us (%zu beyond) | p99.9 %.1f us (%zu "
              "beyond) | generator late p99 %.1f us\n",
              p50.samples, p50.value, window_p50, open.window_p50_us.size(),
              p99.value, p99.beyond, p999.value, p999.beyond, late.value);
  const Quantile q25 = quantile(run.closed.window_qps, 0.25);
  const Quantile q75 = quantile(run.closed.window_qps, 0.75);
  std::printf("closed loop: %.1f answers/s (median of %zu windows; quartiles "
              "%.1f %.1f) with %d outstanding | mean batch %.2f | served P@1 "
              "%.4f over %" PRIu64 " answers\n",
              run.closed.capacity_qps, run.closed.window_qps.size(), q25.value,
              q75.value, kOutstanding, stats.mean_batch_size, served_p1,
              check.answers);

  result.set_throughput(run.closed.capacity_qps);
  if (!tracer.enabled()) {
    result.set("setup_s", median(run.setups), run.setups.size());
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("p50_us", window_p50, p50.samples);
    result.set("p1", served_p1, check.answers);
    result.set("model_ready_s", median(run.ready_s), run.ready_s.size());
    return;
  }
  tracer.count("serve.completed", static_cast<double>(stats.completed));
  tracer.count("serve.batches", static_cast<double>(stats.batches));
  tracer.count("serve.mean_batch_size", stats.mean_batch_size);
  tracer.count("serve.swaps_observed",
               static_cast<double>(stats.swaps_observed));
  tracer.count("serve.ewma_service_us", stats.ewma_service_us);
  tracer.count("serve.online_publishes",
               static_cast<double>(stats.online_publishes));
  const auto submit_max =
      std::max_element(open.submit_us.begin(), open.submit_us.end());
  result.layer("serve.capacity_qps", run.closed.capacity_qps,
               run.closed.window_qps.size());
  result.layer("serve.submit_us", mean(open.submit_us), open.submit_us.size());
  result.layer("serve.submit_max_us",
               submit_max == open.submit_us.end() ? 0.0 : *submit_max,
               open.submit_us.size());
  result.layer("serve.engine_us", median(open.engine_us),
               open.engine_us.size());
  result.layer("serve.mean_batch", stats.mean_batch_size, stats.batches);
  result.layer("serve.p99_us", p99.value, p99.samples);
  result.layer("serve.p999_us", p999.value, p999.samples);
  result.layer("bench.gen_late_p99_us", late.value, late.samples);
  result.layer("serve.update_ms", median(run.update_ms), run.update_ms.size());
  result.layer("serve.publish_ms", median(run.publish_ms),
               run.publish_ms.size());
  result.layer("serve.swap_wait_ms", median(run.swap_wait_ms),
               run.swap_wait_ms.size());
  for (const char* name :
       {"core.train_samples_per_s", "core.train_sample_us",
        "sys.barrier_wait_ms", "optim.apply_updates_ms", "lsh.rebuild_ms",
        "lsh.rebuilds"})
    result.layer(name, 0.0);
}

/// Traced runs: the exact-scoring evaluation call on the served model.
void report_eval(const Network& network, const Dataset& queries,
                 Result& result) {
  ThreadPool pool(1);
  const auto t0 = Clock::now();
  const double p1 = evaluate_p_at_1(
      network, queries, pool, {.exact = true, .max_samples = kEvalQueries});
  result.layer("metrics.eval_ms", seconds_between(t0, Clock::now()) * 1e3, 1);
  std::printf("exact P@1 of the served model: %.4f\n", p1);
}

std::vector<double> schedule(std::uint64_t seed, std::uint64_t phase,
                             double rate, double seconds) {
  return poisson_schedule(derive_seed(seed, 100 + phase), rate, seconds);
}

}  // namespace

SyntheticDataset delicious_data() {
  return make_synthetic_xc(delicious_like(Scale::kSmall));
}

NetworkConfig delicious_config(const Dataset& train, int shards) {
  NetworkConfig cfg = bench::slide_config_for(
      train, HashFamilyKind::kSimhash, /*hidden=*/128, kPrepBatch);
  cfg.seed = 11;
  cfg.layers.back().shards = shards;
  return cfg;
}

void prepare_delicious(const std::string& path) {
  const SyntheticDataset data = delicious_data();
  Network network(delicious_config(data.train, 0), 1);
  TrainerConfig tcfg;
  tcfg.batch_size = kPrepBatch;
  tcfg.num_threads = 1;
  tcfg.learning_rate = 1e-3f;
  tcfg.seed = 11;
  Trainer trainer(network, tcfg);
  trainer.train(data.train, kPrepIterations);
  network.rebuild_all(&trainer.pool());
  // Written under a temporary name and renamed, so an interrupted
  // preparation never leaves a truncated checkpoint behind.
  const std::string tmp = path + ".tmp";
  save_weights_file(network, tmp);
  SLIDE_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
              "prepare: cannot rename the checkpoint into place");
}

void run_churn_sharded(const RunArgs& args, Result& result, Tracer& tracer) {
  constexpr int kShards = 4;
  const SyntheticDataset data = delicious_data();
  const QueryStream queries(data.test, derive_seed(args.seed, 40));
  const NetworkConfig cfg = delicious_config(data.train, kShards);
  OnlineUpdateConfig ocfg;
  ocfg.learning_rate = 1e-3f;
  ocfg.publish_every = std::numeric_limits<std::uint64_t>::max();  // off
  ocfg.rebuild_threads = kRebuildThreads;
  ocfg.seed = derive_seed(args.seed, 30);

  ServingRun run;
  std::shared_ptr<ModelStore> store;
  std::unique_ptr<InferenceEngine> engine;
  std::shared_ptr<Network> master;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    store.reset();
    master.reset();
    const auto t0 = Clock::now();
    store = ModelStore::from_checkpoint_file(cfg, args.checkpoint,
                                             kRebuildThreads);
    engine = std::make_unique<InferenceEngine>(store, serve_config(args.seed));
    master = std::make_shared<Network>(cfg, 1);
    load_weights_file(*master, args.checkpoint);
    engine->enable_online_updates(master, ocfg);
    run.setups.push_back(seconds_between(t0, Clock::now()));
  }
  run.universe.initial = master->output_dim();

  // The updater: on every tick, grow 8 labels, retire the 8 grown two
  // ticks earlier, train 64 samples (a quarter on the new labels), then
  // publish. It owns the master between calls, so reading its width here
  // races with nothing.
  struct Tick {
    Clock::time_point start, updated, published;
    std::uint64_t version = 0;
  };
  std::vector<Tick> ticks;
  std::atomic<bool> stop{false};
  SideThread updater(stop, [&] {
    const auto train = data.train.samples();
    std::vector<std::vector<Index>> grown;  // per tick
    std::size_t cursor = 0;
    Rng rng(derive_seed(args.seed, 31));
    const auto start = Clock::now();
    for (int k = 1; !stop.load(); ++k) {
      wait_until(start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(k * kTickSeconds)));
      if (stop.load()) break;
      OnlineDelta delta;
      delta.add_units = kChurnLabels;
      const Index first_new = master->output_dim();
      if (grown.size() >= 2) delta.retire = grown[grown.size() - 2];
      for (std::size_t s = 0; s < kChurnSamples; ++s) {
        Sample sample = train[cursor++ % train.size()];
        if (s % 4 == 0)
          sample.labels = {first_new + rng.uniform(kChurnLabels)};
        delta.samples.push_back(std::move(sample));
      }
      Tick tick;
      tick.start = Clock::now();
      {
        ScopedSpan span(tracer, "serve.update", static_cast<std::uint64_t>(k));
        engine->update(delta);
      }
      tick.updated = Clock::now();
      {
        ScopedSpan span(tracer, "serve.publish_now",
                        static_cast<std::uint64_t>(k));
        tick.version = engine->publish_now();
      }
      tick.published = Clock::now();
      ticks.push_back(tick);
      std::vector<Index> fresh;
      for (Index u = 0; u < kChurnLabels; ++u) fresh.push_back(first_new + u);
      run.universe.size_at[tick.version] = first_new + kChurnLabels;
      for (Index id : delta.retire) run.universe.retired_at[id] = tick.version;
      // The published snapshot must serve the new labels.
      const auto snapshot = engine->store().current();
      const std::vector<Index> retired =
          snapshot->network->stack(0).retired_unit_ids();
      bool ok = snapshot->version >= tick.version &&
                snapshot->network->output_dim() >= first_new + kChurnLabels;
      for (Index id : fresh)
        ok = ok &&
             std::find(retired.begin(), retired.end(), id) == retired.end();
      if (!ok) ++run.missing_labels;
      grown.push_back(std::move(fresh));
    }
  });

  // Writes run beside the open loop only: the closed loop then measures
  // the sharded snapshot's read capacity, which a rebuild sharing the
  // memory system would otherwise move by a tenth within one run.
  AnswerLog log;
  open_loop(*engine, queries,
            schedule(args.seed, 1, kChurnRate, 0.6 * args.seconds), log,
            tracer, run.open);
  const auto open_end = Clock::now();
  updater.finish();
  if (!log.wait_for(run.open.accepted, 10.0))
    std::printf("open loop: answers missing after the drain timeout\n");
  closed_loop(*engine, queries, 0.35 * args.seconds, log, run.closed);
  if (!log.wait_for(run.open.accepted + run.closed.accepted, 10.0))
    std::printf("closed loop: answers missing after the drain timeout\n");
  run.answers = log.answers();
  for (const Tick& tick : ticks) {
    // A tick still publishing when the open loop ended is first answered by
    // the closed loop, after a gap that is not freshness.
    if (tick.published > open_end) continue;
    ++run.changes;
    const auto first = first_answer_at(run.answers, tick.version);
    if (!first) {
      run.unserved_changes += 1;
      continue;
    }
    run.ready_s.push_back(seconds_between(tick.start, *first));
    run.update_ms.push_back(seconds_between(tick.start, tick.updated) * 1e3);
    run.publish_ms.push_back(
        seconds_between(tick.updated, tick.published) * 1e3);
    run.swap_wait_ms.push_back(seconds_between(tick.published, *first) * 1e3);
  }
  std::printf("churn: %zu ticks, %zu reached traffic | +%u/-%u labels per "
              "tick\n",
              ticks.size(), run.ready_s.size(),
              static_cast<unsigned>(kChurnLabels),
              static_cast<unsigned>(kChurnLabels));
  if (run.ready_s.empty()) run.unserved_changes += 1;
  report_serving(run, queries, *engine, result, tracer);
  engine->stop();
  if (tracer.enabled()) {
    // Shard overhead compares fresh boots of the same checkpoint, S=4
    // against monolithic, on the same queries.
    const auto sharded =
        ModelStore::from_checkpoint_file(cfg, args.checkpoint, kRebuildThreads);
    const auto monolithic = ModelStore::from_checkpoint_file(
        delicious_config(data.train, 0), args.checkpoint, kRebuildThreads);
    const Network& s4 = *sharded->current()->network;
    report_memory(s4, result, tracer);
    decompose_queries(s4, data.test, tracer, result,
                      monolithic->current()->network.get());
    report_eval(s4, data.test, result);
  }
}

}  // namespace perfbench
