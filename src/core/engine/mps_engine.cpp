// MpsEngine: the paper's request/resolved message-passing protocol, one
// genrt::Driver<XkPolicy> per rank — Algorithm 3.2 for every x, which at
// x = 1 is Algorithm 3.1 (xk_policy.h).
#include <memory>
#include <string_view>

#include "core/engine/engine.h"
#include "core/engine/xk_policy.h"
#include "core/genrt/driver.h"

namespace pagen::core {
namespace {

class MpsEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const override { return "mps"; }

  [[nodiscard]] EngineCaps capabilities() const override {
    return {.checkpointing = true,
            .fault_tolerance = true,
            .delivery_hook = true,
            .multi_rank = true};
  }

  [[nodiscard]] RankRun run(const PaConfig& config,
                            const ParallelOptions& options,
                            const partition::Partition& part, mps::Comm& comm,
                            genrt::EdgeEmitter& out) const override {
    genrt::Driver<XkPolicy> rank(config, options, part, comm, out);
    rank.run();
    return {.load = rank.load(), .restored_slots = rank.restored_slots()};
  }
};

}  // namespace

std::unique_ptr<Engine> make_mps_engine() {
  return std::make_unique<MpsEngine>();
}

}  // namespace pagen::core
