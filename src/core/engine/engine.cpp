#include "core/engine/engine.h"

#include <limits>
#include <utility>

#include "mps/world_options.h"
#include "util/error.h"
#include "util/types.h"

namespace pagen::core {

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

EngineRegistry::EngineRegistry() {
  add(make_mps_engine());
  add(make_comm_free_engine());
  add(make_seq_copy_engine());
  add(make_seq_bb_engine());
}

void EngineRegistry::add(std::unique_ptr<Engine> engine) {
  PAGEN_CHECK_MSG(engine != nullptr, "cannot register a null engine");
  PAGEN_CHECK_MSG(find(engine->name()) == nullptr,
                  "engine '" << engine->name() << "' is already registered");
  engines_.push_back(std::move(engine));
}

const Engine* EngineRegistry::find(std::string_view name) const {
  for (const auto& engine : engines_) {
    if (engine->name() == name) return engine.get();
  }
  return nullptr;
}

const Engine& EngineRegistry::require(std::string_view name) const {
  const Engine* engine = find(name);
  PAGEN_CHECK_MSG(engine != nullptr, "unknown engine '" << name
                                                        << "' (registered: "
                                                        << names() << ")");
  return *engine;
}

std::vector<const Engine*> EngineRegistry::engines() const {
  std::vector<const Engine*> out;
  out.reserve(engines_.size());
  for (const auto& engine : engines_) out.push_back(engine.get());
  return out;
}

std::string EngineRegistry::names() const {
  std::string out;
  for (const auto& engine : engines_) {
    if (!out.empty()) out += ", ";
    out += engine->name();
  }
  return out;
}

void check_request(const Engine& engine, const PaConfig& config,
                   const ParallelOptions& options) {
  const mps::WorldOptions& transport = options.transport;
  check_pa_config(config);
  // Every engine sizes tables by n * x (the slots of Algorithm 3.2, the row
  // table of commfree), so the product must not wrap.
  PAGEN_CHECK_MSG(config.n <= std::numeric_limits<NodeId>::max() / config.x,
                  "n * x overflows 64 bits (got n = " << config.n
                                                      << ", x = " << config.x
                                                      << ")");
  PAGEN_CHECK_MSG(options.ranks >= 1,
                  "ranks must be >= 1 (got ranks = " << options.ranks << ")");
  PAGEN_CHECK_MSG(static_cast<NodeId>(options.ranks) <= config.n,
                  "more ranks (" << options.ranks << ") than nodes ("
                                 << config.n << ")");
  PAGEN_CHECK_MSG(options.node_batch >= 1, "node_batch must be >= 1");
  PAGEN_CHECK_MSG(options.buffer_capacity >= 1,
                  "buffer_capacity must be >= 1");
  const auto& part = options.custom_partition;
  PAGEN_CHECK_MSG(!part || (part->num_nodes() == config.n &&
                            part->num_parts() == options.ranks),
                  "custom partition does not match (n, ranks)");
  // The store must see every edge exactly once, which rules out the
  // at-least-once re-emission paths: a crash relaunch or a checkpoint
  // resume would append restored edges again.
  PAGEN_CHECK_MSG(
      options.store_dir.empty() || !transport.fault_plan.has_crash(),
      "store_dir cannot be combined with crash injection: a relaunched run "
      "re-emits restored edges, duplicating blocks in the store");
  PAGEN_CHECK_MSG(options.store_dir.empty() || !options.resume,
                  "store_dir cannot be combined with resume: restored edges "
                  "are re-emitted, duplicating blocks in the store");
  PAGEN_CHECK_MSG(
      transport.delivery_hook == nullptr || options.checkpoint_dir.empty(),
      "delivery_hook is incompatible with checkpointing");
  PAGEN_CHECK_MSG(options.spill_dir.empty() || options.spill_budget_bytes > 0,
                  "spill_budget_bytes must be > 0 when spill_dir is set");
  mps::check_world_options(transport);

  const EngineCaps caps = engine.capabilities();
  PAGEN_CHECK_MSG(config.n <= caps.max_nodes,
                  "engine '" << engine.name() << "' supports n <= "
                             << caps.max_nodes << " (got n = " << config.n
                             << ", x = " << config.x << ")");
  PAGEN_CHECK_MSG(caps.multi_rank || options.ranks == 1,
                  "engine '" << engine.name() << "' is single-rank; got ranks = "
                             << options.ranks);
  PAGEN_CHECK_MSG(
      caps.checkpointing || (options.checkpoint_dir.empty() && !options.resume),
      "engine '" << engine.name()
                 << "' does not support checkpointing; drop checkpoint_dir / "
                    "resume or pick an engine with the capability (e.g. mps)");
  PAGEN_CHECK_MSG(
      caps.fault_tolerance ||
          (!transport.fault_plan.active() && !transport.reliable),
      "engine '" << engine.name()
                 << "' does not support fault injection or reliable transport");
  PAGEN_CHECK_MSG(caps.delivery_hook || transport.delivery_hook == nullptr,
                  "engine '" << engine.name()
                             << "' does not support a delivery hook");
  PAGEN_CHECK_MSG(caps.state_spill || options.spill_dir.empty(),
                  "engine '" << engine.name()
                             << "' does not support external-memory state "
                                "spill (spill_dir); use commfree");
}

}  // namespace pagen::core
