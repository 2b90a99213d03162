// CPU-efficiency instrumentation — the in-container stand-in for the
// paper's Intel VTune analysis (Table 2 core utilization, Figure 6
// inefficiency breakdown). See DESIGN.md §3 for the substitution rationale.
#pragma once

#include <string>

#include "core/trainer.h"
#include "sys/perf_counters.h"

namespace slide {

/// A per-run efficiency report assembled from the thread pool's busy-time
/// accounting, the trainer's phase breakdown, the layers' sampling/compute
/// timers and OS counters.
struct CpuEfficiencyReport {
  int threads = 0;
  double wall_seconds = 0.0;
  /// busy/(threads x wall): the Table-2 "core utilization" analogue.
  double core_utilization = 0.0;
  /// Share of training wall time per phase.
  double compute_fraction = 0.0;   // forward+backward fan-out
  double update_fraction = 0.0;    // lazy Adam
  double rebuild_fraction = 0.0;   // hash-table refresh
  /// Within the output layer: LSH sampling vs activation math seconds.
  double lsh_sampling_seconds = 0.0;
  double layer_compute_seconds = 0.0;
  /// OS counters over the run (memory-pressure proxies).
  PerfSnapshot counters;

  std::string to_markdown_row(const std::string& label) const;
  static std::string markdown_header();
};

/// Snapshots everything needed before a measured run.
struct EfficiencyProbe {
  explicit EfficiencyProbe(Trainer& trainer);

  /// Finishes the measurement and assembles the report.
  CpuEfficiencyReport finish();

 private:
  Trainer& trainer_;
  PerfSnapshot start_counters_;
  TrainTimeBreakdown start_breakdown_;
  std::vector<double> start_busy_;
  double start_sampling_ = 0.0;
  double start_compute_ = 0.0;
  WallTimer timer_;
};

}  // namespace slide
