// Sequential reference engines behind the facade: the copy-model oracle the
// distributed algorithms are tested against (seq-copy) and the classic
// Batagelj-Brandes BA sampler (seq-bb). Single-rank by declaration —
// generate() rejects ranks > 1 for them and runs them on rank 0 of a
// one-rank world — and mostly useful as the ground truth end of
// cross-engine validation (tests/engine_equivalence_test.cpp) and for small
// interactive runs. The baselines are monolithic, so a cancel lands before
// they start or not at all.
#include <memory>
#include <string_view>

#include "baseline/ba_batagelj_brandes.h"
#include "baseline/copy_model_seq.h"
#include "baseline/pa_config.h"
#include "core/engine/engine.h"
#include "core/genrt/emitter.h"
#include "core/options.h"
#include "graph/edge_list.h"
#include "util/types.h"

namespace pagen::core {
namespace {

/// Emit a sequential generator's edges as the one rank's output.
RankRun emit_all(const PaConfig& config, const graph::EdgeList& edges,
                 Count retries, genrt::EdgeEmitter& out) {
  for (const graph::Edge& e : edges) out.emit(e);
  RankRun run;
  run.load.nodes = config.n;
  run.load.retries = retries;
  return run;
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

  [[nodiscard]] RankRun run(const PaConfig& config,
                            const ParallelOptions& /*options*/,
                            const partition::Partition& /*part*/,
                            mps::Comm& /*comm*/,
                            genrt::EdgeEmitter& out) const override {
    if (config.x == 1) {
      return emit_all(config, baseline::copy_model_x1(config), 0, out);
    }
    const baseline::GeneralResult seq = baseline::copy_model_general(config);
    return emit_all(config, seq.edges, seq.retries, out);
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

  [[nodiscard]] RankRun run(const PaConfig& config,
                            const ParallelOptions& /*options*/,
                            const partition::Partition& /*part*/,
                            mps::Comm& /*comm*/,
                            genrt::EdgeEmitter& out) const override {
    return emit_all(config, baseline::ba_batagelj_brandes(config), 0, out);
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
