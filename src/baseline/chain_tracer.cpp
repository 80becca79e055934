#include "baseline/chain_tracer.h"

#include "baseline/pa_draws.h"
#include "util/error.h"

namespace pagen::baseline {

ChainTrace::ChainTrace(const PaConfig& config) {
  PAGEN_CHECK_MSG(config.x == 1, "chains are defined for the x = 1 model");
  check_pa_config(config);
  const DrawSchema draws(config);
  k_.assign(config.n, kNil);
  direct_.assign(config.n, 0);
  direct_[1] = 1;  // F_1 = 0 is fixed, so node 1 is independent
  for (NodeId t = 2; t < config.n; ++t) {
    k_[t] = draws.pick_k(t, 0, 0);
    direct_[t] = draws.pick_direct(t, 0, 0) ? 1 : 0;
  }
}

std::vector<NodeId> ChainTrace::selection_chain(NodeId t) const {
  PAGEN_CHECK(t >= 1 && t < n());
  std::vector<NodeId> chain{t};
  while (t >= 2) {
    t = k_[t];
    chain.push_back(t);
  }
  return chain;
}

std::vector<Count> ChainTrace::dependency_lengths() const {
  std::vector<Count> len(n(), 0);
  if (n() >= 2) len[1] = 1;
  for (NodeId t = 2; t < n(); ++t) {
    len[t] = independent(t) ? 1 : 1 + len[k_[t]];
  }
  return len;
}

std::vector<Count> ChainTrace::selection_lengths() const {
  std::vector<Count> len(n(), 0);
  if (n() >= 2) len[1] = 1;
  for (NodeId t = 2; t < n(); ++t) {
    len[t] = 1 + len[k_[t]];
  }
  return len;
}

}  // namespace pagen::baseline
