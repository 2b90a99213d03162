#include "metrics/instrumentation.h"

#include <iomanip>
#include <sstream>

namespace slide {

EfficiencyProbe::EfficiencyProbe(Trainer& trainer)
    : trainer_(trainer),
      start_counters_(PerfSnapshot::now()),
      start_breakdown_(trainer.time_breakdown()),
      start_busy_(trainer.pool().busy_seconds()),
      start_sampling_(trainer.network().stack(0).sampling_seconds()),
      start_compute_(trainer.network().stack(0).compute_seconds()) {}

CpuEfficiencyReport EfficiencyProbe::finish() {
  CpuEfficiencyReport r;
  r.threads = trainer_.pool().num_threads();
  r.wall_seconds = timer_.seconds();
  r.counters = PerfSnapshot::now() - start_counters_;

  const TrainTimeBreakdown d =
      trainer_.time_breakdown() - start_breakdown_;
  const auto busy_now = trainer_.pool().busy_seconds();
  double busy = 0.0;
  for (std::size_t t = 0; t < busy_now.size(); ++t)
    busy += busy_now[t] - (t < start_busy_.size() ? start_busy_[t] : 0.0);

  const double denom = d.total_seconds * r.threads;
  r.core_utilization = denom > 0.0 ? busy / denom : 0.0;
  if (d.total_seconds > 0.0) {
    r.compute_fraction = d.batch_compute_seconds / d.total_seconds;
    r.update_fraction = d.update_seconds / d.total_seconds;
    r.rebuild_fraction = d.rebuild_seconds / d.total_seconds;
  }
  const Layer& out = trainer_.network().stack(0);
  r.lsh_sampling_seconds = out.sampling_seconds() - start_sampling_;
  r.layer_compute_seconds = out.compute_seconds() - start_compute_;
  return r;
}

std::string CpuEfficiencyReport::markdown_header() {
  return "| run | threads | utilization | compute | update | rebuild | "
         "lsh-sample s | layer-math s | minor-faults | major-faults | "
         "rss MB |\n"
         "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|";
}

std::string CpuEfficiencyReport::to_markdown_row(
    const std::string& label) const {
  std::ostringstream os;
  os << std::fixed;
  os << "| " << label << " | " << threads << " | " << std::setprecision(1)
     << core_utilization * 100.0 << "% | " << compute_fraction * 100.0
     << "% | " << update_fraction * 100.0 << "% | "
     << rebuild_fraction * 100.0 << "% | " << std::setprecision(3)
     << lsh_sampling_seconds << " | " << layer_compute_seconds << " | "
     << counters.minor_page_faults << " | " << counters.major_page_faults
     << " | " << std::setprecision(0)
     << static_cast<double>(counters.resident_set_bytes) / (1024.0 * 1024.0)
     << " |";
  return os.str();
}

}  // namespace slide
