// Front door of the pagen library.
//
// Quickstart:
//   #include "core/generate.h"
//   pagen::PaConfig config{.n = 1'000'000, .x = 4, .p = 0.5, .seed = 42};
//   pagen::core::ParallelOptions options{.engine = "mps", .ranks = 8};
//   auto result = pagen::core::generate(config, options);
//   // result.edges holds the scale-free network's 4e6 edges.
#pragma once

#include "baseline/pa_config.h"
#include "core/options.h"
#include "core/parallel_pa.h"

namespace pagen::core {

/// Generate a preferential-attachment network with the engine named by
/// options.engine (core/engine/engine.h): "mps" (the default) runs the
/// paper's request/resolved protocol — Algorithm 3.1 for x = 1, 3.2
/// otherwise — "commfree" the communication-free pseudorandomization
/// backend, "seq-copy"/"seq-bb" the sequential references. Unknown engine
/// names and every request check_request refuses (core/engine/engine.h:
/// e.g. x = 0, or a checkpoint_dir for an engine without checkpoint
/// support) are rejected with a CheckError before any work starts.
[[nodiscard]] ParallelResult generate(const PaConfig& config,
                                      const ParallelOptions& options);

}  // namespace pagen::core
