// Shared --fault-plan / --checkpoint-dir / --reliable wiring for the
// example and bench binaries (docs/robustness.md). Header-only so binaries
// that never expose the flags pay nothing.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/options.h"
#include "mps/fault.h"
#include "util/cli.h"

namespace pagen::core {

/// Keys understood by apply_robustness_cli; append to a binary's key list.
inline std::vector<std::string> robustness_cli_keys() {
  return {"fault-plan", "checkpoint-dir", "reliable", "rto"};
}

/// Apply the robustness flags to `options`:
///   --fault-plan=SPEC       fault spec (mps::FaultPlan grammar, e.g.
///                           "seed=7,drop=0.02,crash=3@1000")
///   --checkpoint-dir=DIR    per-rank checkpoint directory (must exist)
///   --reliable              ack/retransmit layer even without a fault plan
///   --rto=BASE[:MAX]        retransmission timeout in ms, base and cap
inline void apply_robustness_cli(const Cli& cli, ParallelOptions& options) {
  mps::WorldOptions& t = options.transport;
  const std::string spec = cli.get_str("fault-plan", "");
  if (!spec.empty()) t.fault_plan = mps::FaultPlan::parse(spec);
  options.checkpoint_dir = cli.get_str("checkpoint-dir", "");
  t.reliable = cli.get_bool("reliable", t.reliable);
  if (cli.has("rto")) {
    // Each part whole, in milliseconds, at most the transport's bound;
    // MAX defaults to 16 * BASE, capped at that bound.
    const std::string rto = cli.get_str("rto", "");
    const auto ms = [&rto](std::string_view part) {
      std::int64_t v = 0;
      const char* last = part.data() + part.size();
      const auto [end, ec] = std::from_chars(part.data(), last, v);
      if (ec != std::errc() || end != last || v < 0 || v > mps::kMaxRtoMs) {
        throw std::invalid_argument(
            "bad value for --rto: '" + rto +
            "' (expected BASE or BASE:MAX milliseconds)");
      }
      return v;
    };
    const std::string_view all(rto);
    const auto colon = all.find(':');
    t.rto_base_ms = ms(all.substr(0, colon));
    t.rto_max_ms = colon == std::string_view::npos
                       ? std::min(t.rto_base_ms * 16, mps::kMaxRtoMs)
                       : ms(all.substr(colon + 1));
  }
}

}  // namespace pagen::core
