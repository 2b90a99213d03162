// Umbrella header: the full public API of the SLIDE library.
//
//   #include "slide/slide.h"
//   using namespace slide;
//
// See README.md for a quickstart and DESIGN.md for the module inventory.
#pragma once

#include "baseline/sampled_softmax.h"  // IWYU pragma: export
#include "core/builder.h"              // IWYU pragma: export
#include "core/config.h"               // IWYU pragma: export
#include "core/layer.h"                // IWYU pragma: export
#include "core/network.h"              // IWYU pragma: export
#include "core/serialize.h"            // IWYU pragma: export
#include "core/sharded_layer.h"        // IWYU pragma: export
#include "core/trainer.h"              // IWYU pragma: export
#include "data/batching.h"             // IWYU pragma: export
#include "data/dataset.h"              // IWYU pragma: export
#include "data/sparse_vector.h"        // IWYU pragma: export
#include "data/synthetic.h"            // IWYU pragma: export
#include "data/xc_reader.h"            // IWYU pragma: export
#include "lsh/collision.h"             // IWYU pragma: export
#include "lsh/factory.h"               // IWYU pragma: export
#include "lsh/sampling.h"              // IWYU pragma: export
#include "lsh/table_group.h"           // IWYU pragma: export
#include "metrics/convergence.h"       // IWYU pragma: export
#include "metrics/instrumentation.h"   // IWYU pragma: export
#include "metrics/latency.h"           // IWYU pragma: export
#include "metrics/metrics.h"           // IWYU pragma: export
#include "metrics/prometheus.h"        // IWYU pragma: export
#include "metrics/table_printer.h"     // IWYU pragma: export
#include "optim/adam.h"                // IWYU pragma: export
#include "retrieval/exact_retriever.h"  // IWYU pragma: export
#include "retrieval/lsh_retriever.h"    // IWYU pragma: export
#include "retrieval/retriever.h"        // IWYU pragma: export
#include "serve/engine.h"              // IWYU pragma: export
#include "serve/request_queue.h"       // IWYU pragma: export
#include "serve/snapshot.h"            // IWYU pragma: export
#include "simd/kernels.h"              // IWYU pragma: export
#include "sys/hugepages.h"             // IWYU pragma: export
#include "sys/perf_counters.h"         // IWYU pragma: export
#include "sys/rng.h"                   // IWYU pragma: export
#include "sys/thread_pool.h"           // IWYU pragma: export
#include "sys/timer.h"                 // IWYU pragma: export
