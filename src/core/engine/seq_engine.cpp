// Sequential reference engines behind the facade: the copy-model oracle the
// distributed algorithms are tested against (seq-copy) and the classic
// Batagelj-Brandes BA sampler (seq-bb). Single-rank by declaration —
// generate() rejects ranks > 1 for them — and mostly useful as the ground
// truth end of cross-engine validation (tests/engine_equivalence_test.cpp)
// and for small interactive runs.
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/ba_batagelj_brandes.h"
#include "baseline/copy_model_seq.h"
#include "baseline/pa_config.h"
#include "core/engine/engine.h"
#include "core/genrt/emitter.h"
#include "core/load_stats.h"
#include "core/options.h"
#include "core/parallel_pa.h"
#include "graph/edge_list.h"
#include "mps/stats.h"
#include "obs/session.h"
#include "util/timer.h"
#include "util/types.h"

namespace pagen::core {
namespace {

/// Shared single-rank output: feed a sequential generator's edges through a
/// rank-0 emitter and assemble them as a one-rank ParallelResult. Cancellation
/// is coarse for these engines — checked before the run only; the baselines
/// are monolithic.
ParallelResult assemble_sequential(const PaConfig& config,
                                   const ParallelOptions& options,
                                   graph::EdgeList edges, Count retries,
                                   const Timer& timer) {
  genrt::EdgeEmitter out(options, 0, edges.size());
  for (const graph::Edge& e : edges) out.emit(e);
  out.finish();
  edges = graph::EdgeList{};  // the emitter kept its own copy if needed

  RankLoad load;
  load.nodes = config.n;
  load.edges = out.emitted();
  load.retries = retries;
  if (options.obs != nullptr) {
    record_metrics(options.obs->rank(0).metrics(), load);
  }

  std::vector<graph::EdgeList> kept;
  kept.push_back(out.take_kept());
  ParallelResult result =
      genrt::assemble_result(config, options, {load}, std::move(kept));
  result.comm_stats = {mps::CommStats{}};
  result.wall_seconds = timer.seconds();
  return result;
}

void throw_if_cancelled(const ParallelOptions& options) {
  if (options.cancel_requested && options.cancel_requested()) {
    throw Cancelled();
  }
}

class SeqCopyEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const override { return "seq-copy"; }

  [[nodiscard]] EngineCaps capabilities() const override {
    return {.checkpointing = false,
            .fault_tolerance = false,
            .delivery_hook = false,
            .multi_rank = false};
  }

  [[nodiscard]] ParallelResult run(
      const PaConfig& config, const ParallelOptions& options) const override {
    throw_if_cancelled(options);
    const Timer timer;
    if (config.x == 1) {
      return assemble_sequential(config, options,
                                 baseline::copy_model_x1(config), 0, timer);
    }
    baseline::GeneralResult seq = baseline::copy_model_general(config);
    return assemble_sequential(config, options, std::move(seq.edges),
                               seq.retries, timer);
  }
};

class SeqBbEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const override { return "seq-bb"; }

  [[nodiscard]] EngineCaps capabilities() const override {
    return {.checkpointing = false,
            .fault_tolerance = false,
            .delivery_hook = false,
            .multi_rank = false};
  }

  [[nodiscard]] ParallelResult run(
      const PaConfig& config, const ParallelOptions& options) const override {
    throw_if_cancelled(options);
    const Timer timer;
    return assemble_sequential(config, options,
                               baseline::ba_batagelj_brandes(config), 0, timer);
  }
};

}  // namespace

std::unique_ptr<Engine> make_seq_copy_engine() {
  return std::make_unique<SeqCopyEngine>();
}

std::unique_ptr<Engine> make_seq_bb_engine() {
  return std::make_unique<SeqBbEngine>();
}

}  // namespace pagen::core
