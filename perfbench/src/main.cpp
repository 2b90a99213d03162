// The perfbench binary. run.py builds it and calls it; it can also be
// run by hand:
//
//   perfbench prepare --out model.slide
//   perfbench run --workload train-amazon|churn-sharded
//                 --seed N --seconds S --trace 0|1
//                 [--checkpoint model.slide] [--trace-out spans.json]
//
// `run` prints the host/build class, one line per metric, and as its last
// line the JSON result. It exits nonzero when any output was invalid.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --out PATH\n"
               "       perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 [--checkpoint PATH] [--trace-out PATH]\n");
  return 2;
}

int run(const RunArgs& args, const std::string& trace_out) {
  std::printf("host: %s\n", host_build_class().c_str());
  std::printf("workload %s seed %llu seconds %.3g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);
  Result result(args.trace);
  Tracer tracer(args.trace);
  report_host(result);
  if (args.workload == "train-amazon") {
    run_train_amazon(args, result, tracer);
  } else if (args.workload == "churn-sharded") {
    run_churn_sharded(args, result, tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    for (const auto& [name, t] : tracer.totals())
      std::printf("span %-24s n=%-7zu total %.1f us self %.1f us\n",
                  name.c_str(), t.spans, t.total_us, t.self_us);
    if (!trace_out.empty() && !tracer.write(trace_out))
      result.fail("cannot write the span file " + trace_out);
  }
  std::fputs(result.report().c_str(), stdout);
  std::printf("%s\n", result.json().c_str());
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  RunArgs args;
  std::string out, trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--checkpoint") args.checkpoint = value;
    else if (flag == "--trace-out") trace_out = value;
    else if (flag == "--out") out = value;
    else return usage();
  }
  try {
    if (command == "prepare" && !out.empty()) {
      prepare_delicious(out);
      return 0;
    }
    if (command == "run" && !args.workload.empty() && args.seconds > 0)
      return run(args, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
