// MpsEngine: the paper's request/resolved message-passing protocol, wrapped
// behind the Engine facade. This file is the only sanctioned caller of the
// raw algorithm entry point — pagen-lint's engine-facade rule keeps it that
// way.
#include <memory>
#include <string_view>

#include "core/engine/engine.h"
#include "core/parallel_pa_general.h"

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

  [[nodiscard]] ParallelResult run(
      const PaConfig& config, const ParallelOptions& options) const override {
    // Algorithm 3.2 for every x; at x = 1 it is Algorithm 3.1.
    return generate_pa_general(config, options);
  }
};

}  // namespace

std::unique_ptr<Engine> make_mps_engine() {
  return std::make_unique<MpsEngine>();
}

}  // namespace pagen::core
