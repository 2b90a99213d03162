// The metric names and units perfbench prints. BENCHMARK.json at the
// repository root lists the same names (test_perfbench.py checks that the
// two agree); a run that leaves an end-to-end metric unmeasured fails.
#pragma once

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Measured with tracing off; every workload reports each of them (see
/// README.md for what each one means on each workload).
inline constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"},   {"p50_us", "us"},
    {"p1", "ratio"},  {"model_ready_s", "s"},
};

/// Measured by the traced run. A layer a workload never calls reads 0.
/// bench.tracing_overhead_pct is added by run.py, which compares the traced
/// run with an untraced one.
inline constexpr MetricName kPerLayer[] = {
    {"core.train_samples_per_s", "1/s"},
    {"core.train_sample_us", "us"},
    {"core.embed_us", "us"},
    {"core.topk_us", "us"},
    {"core.shard_overhead_us", "us"},
    {"core.weights_mb", "MB"},
    {"sys.barrier_wait_ms", "ms"},
    {"optim.apply_updates_ms", "ms"},
    {"optim.state_mb", "MB"},
    {"lsh.rebuild_ms", "ms"},
    {"lsh.rebuilds", "count"},
    {"lsh.hash_us", "us"},
    {"lsh.probe_us", "us"},
    {"lsh.index_mb", "MB"},
    {"lsh.bucket_occupancy", "ratio"},
    {"retrieval.retrieve_us", "us"},
    {"retrieval.candidates", "count"},
    {"retrieval.recall_at_1", "ratio"},
    {"retrieval.active_fraction", "ratio"},
    {"simd.score_bytes", "bytes"},
    {"serve.capacity_qps", "1/s"},
    {"serve.submit_us", "us"},
    {"serve.submit_max_us", "us"},
    {"serve.engine_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.update_ms", "ms"},
    {"serve.publish_ms", "ms"},
    {"serve.swap_wait_ms", "ms"},
    {"serve.p99_us", "us"},
    {"serve.p999_us", "us"},
    {"metrics.eval_ms", "ms"},
    {"bench.gen_late_p99_us", "us"},
    {"bench.host_wake_p99_us", "us"},
    {"bench.host_compute_rate", "1/s"},
};

}  // namespace perfbench
