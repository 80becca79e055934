// Shared --engine CLI plumbing: every bench/example that exposes engine
// selection builds its allowed-key list with engine_cli_keys() and applies
// the choice with apply_engine_cli(), so the flag is spelled and validated
// identically everywhere (unknown names fail at generate() with the list of
// registered engines).
#pragma once

#include <string>
#include <vector>

#include "core/options.h"
#include "util/cli.h"

namespace pagen::core {

[[nodiscard]] inline std::vector<std::string> engine_cli_keys() {
  return {"engine"};
}

inline void apply_engine_cli(const Cli& cli, ParallelOptions& options) {
  options.engine = cli.get_str("engine", options.engine);
}

}  // namespace pagen::core
