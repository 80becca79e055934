#include "core/engine/engine.h"

#include <utility>

#include "util/error.h"

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

void check_engine_options(const Engine& engine, const PaConfig& config,
                          const ParallelOptions& options) {
  // Written so that NaN fails too; x > 1 further needs p < 1 (engine run()).
  PAGEN_CHECK_MSG(config.p >= 0.0 && config.p <= 1.0,
                  "p must be in [0, 1] (got p = " << config.p << ")");
  PAGEN_CHECK_MSG(options.node_batch >= 1, "node_batch must be >= 1");
  PAGEN_CHECK_MSG(options.buffer_capacity >= 1,
                  "buffer_capacity must be >= 1");
  const EngineCaps caps = engine.capabilities();
  PAGEN_CHECK_MSG(caps.multi_rank || options.ranks == 1,
                  "engine '" << engine.name() << "' is single-rank; got ranks = "
                             << options.ranks);
  PAGEN_CHECK_MSG(
      caps.checkpointing || (options.checkpoint_dir.empty() && !options.resume),
      "engine '" << engine.name()
                 << "' does not support checkpointing; drop checkpoint_dir / "
                    "resume or pick an engine with the capability (e.g. mps)");
  PAGEN_CHECK_MSG(
      caps.fault_tolerance || (!options.fault_plan.active() && !options.reliable),
      "engine '" << engine.name()
                 << "' does not support fault injection or reliable transport");
  PAGEN_CHECK_MSG(caps.delivery_hook || options.delivery_hook == nullptr,
                  "engine '" << engine.name()
                             << "' does not support a delivery hook");
  PAGEN_CHECK_MSG(caps.state_spill || options.spill_dir.empty(),
                  "engine '" << engine.name()
                             << "' does not support external-memory state "
                                "spill (spill_dir); use commfree");
  PAGEN_CHECK_MSG(options.spill_dir.empty() || options.spill_budget_bytes > 0,
                  "spill_budget_bytes must be > 0 when spill_dir is set");
}

}  // namespace pagen::core
