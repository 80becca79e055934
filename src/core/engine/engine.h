// The engine layer: one front door, N interchangeable generator backends.
//
// An Engine is one rank's strategy for producing its share of the
// preferential-attachment graph of a (PaConfig, ParallelOptions) pair.
// core::generate() is the one launch: it looks up ParallelOptions::engine,
// runs check_request — which also verifies the options against the
// engine's declared capabilities (an engine without checkpoint support
// *rejects* checkpoint_dir instead of silently ignoring it) — builds the
// partition, and runs the engine's rank body on every rank of an mps world.
// Built-in engines:
//
//   mps       the paper's request/resolved message-passing protocol
//             (Algorithm 3.2 in one rank class; Algorithm 3.1 at x = 1)
//   commfree  communication-free pseudorandomization (Sanders & Schulz,
//             arXiv:1602.07106): every rank re-derives remote F_k values
//             locally from the counter-based draw chain — zero
//             request/resolved messages, one allgather per epoch at x > 1
//   seq-copy  sequential copy-model reference (baseline/copy_model_seq.h)
//   seq-bb    sequential Batagelj-Brandes BA reference (p is ignored)
//
// docs/architecture.md "Engine layer" documents the capability matrix and
// how to add an engine.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/pa_config.h"
#include "core/load_stats.h"
#include "core/options.h"
#include "partition/partition.h"
#include "util/types.h"

namespace pagen::mps {
class Comm;
}

namespace pagen::core {

namespace genrt {
class EdgeEmitter;
}

/// What an engine supports beyond plain generation. generate() enforces
/// these against the requested ParallelOptions before dispatch, so asking an
/// engine for a feature it lacks is a loud CheckError, never a silent no-op.
struct EngineCaps {
  bool checkpointing = false;    ///< honors checkpoint_dir / resume
  bool fault_tolerance = false;  ///< honors fault_plan / reliable transport
  bool delivery_hook = false;    ///< honors the mpsmc schedule-control seam
  bool multi_rank = true;        ///< supports ranks > 1
  /// Honors spill_dir / spill_budget_bytes: per-rank derivation state pages
  /// to disk under a byte budget, bounding peak RSS at any n
  /// (docs/storage.md §5). An engine with no state at some x accepts them
  /// there as no-ops.
  bool state_spill = false;
  /// The largest n the engine's per-rank state can address.
  NodeId max_nodes = kNil;
};

/// What one rank's run reports to the launch.
struct RankRun {
  /// The rank's counters; the launch sets `edges` from the rank's emitter.
  RankLoad load;
  /// Slots this rank restored from a checkpoint (0 on a cold start).
  Count restored_slots = 0;
};

/// One generator backend. Implementations are stateless (all run state is
/// local to run()), so a single registered instance serves concurrent jobs.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry key and CLI spelling (--engine=<name>).
  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual EngineCaps capabilities() const = 0;

  /// One rank's body: emit the edges of the rank's nodes in `part` through
  /// `out`. Only core::generate calls this, on every rank of the world (a
  /// single-rank engine's world has one rank), after check_request has
  /// accepted the request, with a fresh emitter per rank and world.
  [[nodiscard]] virtual RankRun run(const PaConfig& config,
                                    const ParallelOptions& options,
                                    const partition::Partition& part,
                                    mps::Comm& comm,
                                    genrt::EdgeEmitter& out) const = 0;
};

/// Process-wide engine table: the built-in engines, registered once by the
/// constructor and read-only afterwards.
class EngineRegistry {
 public:
  [[nodiscard]] static EngineRegistry& instance();

  /// The named engine, or null when unknown.
  [[nodiscard]] const Engine* find(std::string_view name) const;

  /// The named engine; throws CheckError listing the registered names when
  /// unknown.
  [[nodiscard]] const Engine& require(std::string_view name) const;

  /// All engines in registration order.
  [[nodiscard]] std::vector<const Engine*> engines() const;

  /// "mps, commfree, seq-copy, seq-bb" — for error messages and --help.
  [[nodiscard]] std::string names() const;

 private:
  EngineRegistry();

  /// Register an engine; names must be unique.
  void add(std::unique_ptr<Engine> engine);

  std::vector<std::unique_ptr<Engine>> engines_;
};

/// The one statement of what a run accepts — the PaConfig domain, the run
/// shape, option combinations no engine honors, the transport, and the
/// engine's capabilities — called by generate() and svc::validate(). Throws
/// CheckError naming the violated condition.
void check_request(const Engine& engine, const PaConfig& config,
                   const ParallelOptions& options);

// Built-in engine factories (one translation unit each).
[[nodiscard]] std::unique_ptr<Engine> make_mps_engine();
[[nodiscard]] std::unique_ptr<Engine> make_comm_free_engine();
[[nodiscard]] std::unique_ptr<Engine> make_seq_copy_engine();
[[nodiscard]] std::unique_ptr<Engine> make_seq_bb_engine();

}  // namespace pagen::core
