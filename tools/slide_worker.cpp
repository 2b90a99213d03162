// slide_worker — standalone shard-worker process for distributed model
// parallelism (src/dist/).
//
//   slide_worker --listen tcp::0
//
// binds the endpoint, prints the dialable form ("LISTENING <endpoint>") on
// stdout so launch scripts can capture the kernel-assigned port, accepts
// exactly one coordinator connection, and serves dist/protocol.h RPCs
// until kShutdown (exit 0) or the coordinator vanishes (exit 2). One
// process per shard; the coordinator (one dist::RemoteShard per worker)
// dials the printed endpoints in shard order.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "dist/transport.h"
#include "dist/worker.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen <endpoint>]\n"
               "  endpoint: tcp:<host>:<port> (tcp::0 = ephemeral port on all\n"
               "            interfaces) or shm:<path>\n",
               argv0);
  return 64;  // EX_USAGE
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoint = "tcp::0";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      endpoint = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    auto listener = slide::dist::listen_endpoint(endpoint);
    // Launch scripts block on this line to learn the resolved port; flush
    // so it is visible even through a pipe.
    std::printf("LISTENING %s\n", listener->endpoint().c_str());
    std::fflush(stdout);

    slide::dist::ShardWorker worker(listener->accept(/*timeout_ms=*/-1));
    listener->close();  // one coordinator per worker process
    const auto reason = worker.serve();
    if (reason == slide::dist::ShardWorker::ExitReason::kShutdown) return 0;
    std::fprintf(stderr, "slide_worker: coordinator connection lost\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slide_worker: %s\n", e.what());
    return 1;
  }
}
