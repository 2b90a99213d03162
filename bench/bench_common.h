// Shared setup for the table/figure reproduction benches.
//
// Every bench binary runs argument-free on two cores in minutes. Two
// environment variables widen the workloads toward paper scale on bigger
// machines:
//   SLIDE_BENCH_SCALE   = tiny | small | medium | paper   (default: small)
//   SLIDE_BENCH_THREADS = N (default: all hardware threads)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "slide/slide.h"

namespace slide::bench {

inline Scale env_scale(Scale fallback = Scale::kSmall) {
  const char* env = std::getenv("SLIDE_BENCH_SCALE");
  return env == nullptr ? fallback : parse_scale(env);
}

inline int env_threads() {
  const char* env = std::getenv("SLIDE_BENCH_THREADS");
  const int n = env == nullptr ? 0 : std::atoi(env);
  return n > 0 ? n : hardware_threads();
}

inline const char* scale_name(Scale scale) {
  switch (scale) {
    case Scale::kTiny:
      return "tiny";
    case Scale::kSmall:
      return "small";
    case Scale::kMedium:
      return "medium";
    case Scale::kPaper:
      return "paper";
  }
  return "?";
}

/// Paper-architecture SLIDE config for a dataset: Simhash K=9 L=50
/// (delicious role) or DWTA K=8 L=50 (amazon role), tables on the output
/// layer, ~2% target active neurons (>=32). The paper reaches ~0.5% at
/// 200K-670K classes; at the scaled-down label widths used here a slightly
/// larger fraction keeps the absolute active count (and thus the softmax
/// negative coverage) comparable.
inline NetworkConfig slide_config_for(const Dataset& train,
                                      HashFamilyKind kind,
                                      Index hidden = 128,
                                      int max_batch = 256) {
  HashFamilyConfig family;
  family.kind = kind;
  family.k = kind == HashFamilyKind::kSimhash ? 9 : 8;
  family.l = 50;
  family.bin_size = 8;
  const Index target = std::max<Index>(32, train.label_dim() / 50);
  NetworkConfig cfg = make_paper_network(train.feature_dim(),
                                         train.label_dim(), family, target,
                                         hidden);
  cfg.max_batch_size = max_batch;
  cfg.layers[0].table.range_pow = 12;
  cfg.layers[0].table.bucket_size = 128;
  cfg.layers[0].rebuild.initial_period = 50;
  return cfg;
}

/// The dense full-softmax baseline (TF-CPU role, DESIGN.md §3) for a
/// dataset: the embedding slide_config_for uses, then a softmax over every
/// label. It trains through the same Trainer as SLIDE, with no lock: each
/// row's gradient is summed by one thread at apply time.
inline Network dense_baseline_for(const Dataset& train, int max_batch,
                                  int threads, Index hidden = 128) {
  return NetworkBuilder(train.feature_dim())
      .dense(hidden)
      .dense(train.label_dim(), Activation::kSoftmax)
      .max_batch(max_batch)
      .build(threads);
}

/// Trains a network — SLIDE, or the dense full-softmax baseline (TF-CPU
/// role) — recording (iteration,
/// seconds, accuracy) every eval_every iterations. Evaluation time is
/// excluded from the recorded clock.
inline void run_slide_convergence(Network& network, const Dataset& train,
                                  const Dataset& test,
                                  const TrainerConfig& tcfg, long iterations,
                                  long eval_every, ConvergenceRecorder& rec,
                                  std::size_t eval_samples = 1'000) {
  Trainer trainer(network, tcfg);
  Batcher batcher(train, static_cast<std::size_t>(tcfg.batch_size),
                  tcfg.shuffle, tcfg.seed + 1);
  double train_seconds = 0.0;
  for (long i = 1; i <= iterations; ++i) {
    WallTimer step_timer;
    trainer.step(train, batcher.next());
    train_seconds += step_timer.seconds();
    if (i % eval_every == 0 || i == iterations) {
      const double acc =
          evaluate_p_at_1(network, test, trainer.pool(),
                          {.exact = true, .max_samples = eval_samples});
      rec.add({.iteration = i,
               .seconds = train_seconds,
               .accuracy = acc,
               .active_fraction =
                   network.output_layer().average_active_fraction()});
    }
  }
}

/// Minimal streaming JSON writer for machine-readable bench artifacts
/// (BENCH_*.json), so the perf trajectory is trackable across PRs without
/// scraping stdout tables. Strings are escaped, and write_file() is atomic
/// (temp file + rename): the CI regression gate parses these artifacts, and
/// a bench killed mid-write must not leave a truncated document behind.
class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }
  Json& key(const char* name) {
    comma();
    append_quoted(name);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }
  Json& number(double v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
    return *this;
  }
  Json& number(long long v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& string(const char* v) {
    comma();
    append_quoted(v);
    return *this;
  }
  const std::string& str() const { return out_; }

  /// Writes the document to `path` atomically (and says so on stdout):
  /// the bytes land in `path + ".tmp"` first and only a complete, flushed
  /// file is renamed into place — rename(2) within a directory is atomic,
  /// so readers see either the old artifact or the new one, never a
  /// truncated mix.
  void write_file(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::printf("[json] cannot open %s\n", tmp.c_str());
      return;
    }
    const std::size_t written = std::fwrite(out_.data(), 1, out_.size(), f);
    const bool ok = written == out_.size() && std::fputc('\n', f) != EOF &&
                    std::fflush(f) == 0;
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::printf("[json] failed to write %s\n", path.c_str());
      std::remove(tmp.c_str());
      return;
    }
    std::printf("[json] wrote %s (%zu bytes)\n", path.c_str(), out_.size());
  }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    need_comma_ = false;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    need_comma_ = true;
    return *this;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;  // value right after a key: no comma
      need_comma_ = true;
      return;
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  void append_quoted(const char* s) {
    out_ += '"';
    for (; s != nullptr && *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        case '\r':
          out_ += "\\r";
          break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += static_cast<char>(c);
          }
      }
    }
    out_ += '"';
  }
  std::string out_;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

/// Output path for a bench's JSON artifact: $SLIDE_BENCH_JSON_DIR/<name>
/// (default: current directory).
inline std::string json_path(const char* name) {
  const char* dir = std::getenv("SLIDE_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return name;
  std::string path(dir);
  if (path.back() != '/') path += '/';
  return path + name;
}

inline void print_header(const char* artifact, const char* paper_summary) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", artifact);
  std::printf("Paper: %s\n", paper_summary);
  std::printf("================================================================\n");
}

inline void print_env(Scale scale, int threads) {
  std::printf("[env] scale=%s threads=%d simd=%s (detected %s) thp=%s\n",
              scale_name(scale), threads,
              simd::to_string(simd::active_level()),
              simd::to_string(simd::detected_level()), thp_mode().c_str());
}

}  // namespace slide::bench
