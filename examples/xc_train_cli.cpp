// Command-line trainer for real Extreme Classification Repository files —
// the tool to reproduce the paper's experiments on the actual
// Delicious-200K / Amazon-670K downloads.
//
//   ./build/examples/xc_train_cli TRAIN.txt TEST.txt [options]
//     --hash simhash|dwta   (default simhash; paper: simhash for
//                            Delicious, dwta for Amazon)
//     --k N          meta-hash width                    (default 9)
//     --tables N     number of hash tables L            (default 50)
//     --active N     target active neurons per sample   (default labels/200)
//     --hidden N     hidden width                       (default 128)
//     --batch N      batch size                         (default 128)
//     --lr F         Adam learning rate                 (default 1e-4)
//     --iters N      training iterations                (default 3 epochs)
//     --threads N    CPU threads                        (default all)
//     --save PATH    write a checkpoint after training
//     --load PATH    initialize from a checkpoint
//
// Without file arguments it runs on a synthetic delicious-like dataset so
// the binary is self-demonstrating.
#include <cstdio>
#include <cstring>
#include <string>

#include "slide/slide.h"

using namespace slide;

namespace {

struct Options {
  std::string train_path;
  std::string test_path;
  HashFamilyKind hash = HashFamilyKind::kSimhash;
  int k = 9;
  int tables = 50;
  Index active = 0;  // 0 = auto
  Index hidden = 128;
  int batch = 128;
  float lr = 1e-4f;
  long iters = 0;  // 0 = 3 epochs
  int threads = 0;
  std::string save_path;
  std::string load_path;
};

HashFamilyKind parse_hash(const std::string& name) {
  if (name == "simhash") return HashFamilyKind::kSimhash;
  if (name == "dwta") return HashFamilyKind::kDwta;
  throw Error("unknown hash family: " + name + " (expected simhash|dwta)");
}

Options parse(int argc, char** argv) {
  Options opt;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      SLIDE_CHECK(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--hash") {
      opt.hash = parse_hash(next());
    } else if (arg == "--k") {
      opt.k = std::stoi(next());
    } else if (arg == "--tables") {
      opt.tables = std::stoi(next());
    } else if (arg == "--active") {
      opt.active = static_cast<Index>(std::stoul(next()));
    } else if (arg == "--hidden") {
      opt.hidden = static_cast<Index>(std::stoul(next()));
    } else if (arg == "--batch") {
      opt.batch = std::stoi(next());
    } else if (arg == "--lr") {
      opt.lr = std::stof(next());
    } else if (arg == "--iters") {
      opt.iters = std::stol(next());
    } else if (arg == "--threads") {
      opt.threads = std::stoi(next());
    } else if (arg == "--save") {
      opt.save_path = next();
    } else if (arg == "--load") {
      opt.load_path = next();
    } else if (arg.rfind("--", 0) == 0) {
      throw Error("unknown option: " + arg);
    } else if (positional == 0) {
      opt.train_path = arg;
      ++positional;
    } else if (positional == 1) {
      opt.test_path = arg;
      ++positional;
    } else {
      throw Error("unexpected argument: " + arg);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (opt.threads <= 0) opt.threads = hardware_threads();

  Dataset train, test;
  if (opt.train_path.empty()) {
    std::printf("[data] no files given — using a synthetic delicious-like "
                "dataset (tiny)\n");
    auto synthetic = make_synthetic_xc(delicious_like(Scale::kTiny));
    train = std::move(synthetic.train);
    test = std::move(synthetic.test);
  } else {
    std::printf("[data] reading %s ...\n", opt.train_path.c_str());
    train = read_xc_file(opt.train_path);
    std::printf("[data] reading %s ...\n", opt.test_path.c_str());
    test = read_xc_file(opt.test_path);
  }
  std::printf("%s\n%s\n", describe(train.stats(), "train").c_str(),
              describe(test.stats(), "test").c_str());

  if (opt.active == 0)
    opt.active = std::max<Index>(32, train.label_dim() / 200);
  if (opt.iters == 0)
    opt.iters = static_cast<long>(3 * train.size() /
                                  static_cast<std::size_t>(opt.batch));

  HashFamilyConfig family;
  family.kind = opt.hash;
  family.k = opt.k;
  family.l = opt.tables;
  NetworkConfig cfg = make_paper_network(train.feature_dim(),
                                         train.label_dim(), family,
                                         opt.active, opt.hidden);
  cfg.max_batch_size = opt.batch;
  cfg.layers[0].table.range_pow = 14;

  Network network(cfg, opt.threads);
  std::printf("[net] %zu parameters, %s K=%d L=%d, %u active of %u classes "
              "(%.2f%%), %d threads\n",
              network.num_parameters(), to_string(opt.hash), opt.k,
              opt.tables, opt.active, train.label_dim(),
              100.0 * opt.active / train.label_dim(), opt.threads);

  TrainerConfig tcfg;
  tcfg.batch_size = opt.batch;
  tcfg.num_threads = opt.threads;
  tcfg.learning_rate = opt.lr;
  Trainer trainer(network, tcfg);

  if (!opt.load_path.empty()) {
    std::printf("[init] loading checkpoint %s\n", opt.load_path.c_str());
    load_weights_file(network, opt.load_path, &trainer.pool());
  }

  WallTimer timer;
  trainer.train(train, opt.iters, [&](long it) {
    const double p1 = evaluate_p_at_1(network, test, trainer.pool(),
                                      {.exact = true, .max_samples = 2'000});
    std::printf("  iter %6ld | %8.1fs | P@1 %.4f | active %.2f%%\n", it,
                timer.seconds(), p1,
                100.0 * network.output_layer().average_active_fraction());
  }, std::max<long>(1, opt.iters / 10));

  const double p1 = evaluate_p_at_1(network, test, trainer.pool(),
                                    {.exact = true, .max_samples = 10'000});
  const double p5 = evaluate_p_at_k(network, test, trainer.pool(), 5,
                                    {.exact = true, .max_samples = 10'000});
  std::printf("[final] P@1 %.4f  P@5 %.4f  train %.1fs\n", p1, p5,
              timer.seconds());

  if (!opt.save_path.empty()) {
    save_weights_file(network, opt.save_path);
    std::printf("[save] checkpoint written to %s\n", opt.save_path.c_str());
  }
  return 0;
}
