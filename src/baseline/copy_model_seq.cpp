#include "baseline/copy_model_seq.h"

#include <unordered_set>

#include "baseline/pa_draws.h"
#include "util/error.h"

namespace pagen::baseline {

std::vector<NodeId> copy_model_targets(const PaConfig& config) {
  PAGEN_CHECK_MSG(config.x == 1, "copy_model_targets is the x = 1 model");
  check_pa_config(config);
  const DrawSchema draws(config);

  std::vector<NodeId> f(config.n, kNil);
  f[1] = 0;  // bootstrap edge (1, 0)
  for (NodeId t = 2; t < config.n; ++t) {
    const NodeId k = draws.pick_k(t, 0, 0);
    f[t] = draws.pick_direct(t, 0, 0) ? k : f[k];
    PAGEN_DCHECK(f[t] < t);
  }
  return f;
}

void extend_copy_model(std::vector<NodeId>& targets, const PaConfig& config) {
  PAGEN_CHECK_MSG(config.x == 1, "extend_copy_model is the x = 1 model");
  PAGEN_CHECK_MSG(targets.size() >= 2, "seed network too small");
  PAGEN_CHECK_MSG(config.n >= targets.size(), "cannot shrink a network");
  const DrawSchema draws(config);
  const auto old_n = static_cast<NodeId>(targets.size());
  targets.resize(config.n, kNil);
  for (NodeId t = old_n; t < config.n; ++t) {
    const NodeId k = draws.pick_k(t, 0, 0);
    targets[t] = draws.pick_direct(t, 0, 0) ? k : targets[k];
    PAGEN_DCHECK(targets[t] < t);
  }
}

graph::EdgeList copy_model_x1(const PaConfig& config) {
  const auto f = copy_model_targets(config);
  graph::EdgeList edges;
  edges.reserve(config.n - 1);
  for (NodeId t = 1; t < config.n; ++t) {
    edges.push_back({t, f[t]});
  }
  return edges;
}

GeneralResult copy_model_general(const PaConfig& config) {
  check_pa_config(config);
  if (config.x == 1) {
    GeneralResult r;
    r.targets = copy_model_targets(config);
    r.edges = copy_model_x1(config);
    return r;
  }
  const DrawSchema draws(config);
  const NodeId x = config.x;

  GeneralResult result;
  result.targets.assign(config.n * x, kNil);
  result.edges.reserve(expected_edge_count(config));

  // Initial clique over nodes 0..x-1.
  for (NodeId i = 0; i < x; ++i) {
    for (NodeId j = i + 1; j < x; ++j) {
      result.edges.push_back({j, i});
    }
  }
  // Bootstrap convention: node x connects to every clique node (the paper's
  // Line 4 range [x, t-1] is empty at t = x; see DESIGN.md §5).
  for (NodeId e = 0; e < x; ++e) {
    result.targets[x * x + e] = e;
    result.edges.push_back({x, e});
  }

  for (NodeId t = x + 1; t < config.n; ++t) {
    auto* row = &result.targets[t * x];
    auto is_dup = [&](NodeId v) {
      for (NodeId e = 0; e < x; ++e) {
        if (row[e] == v) return true;
      }
      return false;
    };
    for (NodeId e = 0; e < x; ++e) {
      // Algorithm 3.2 retry semantics: a duplicate on the direct path goes
      // back to Line 4 (fresh k and coin); a duplicate discovered on the
      // copy path re-draws k and l but stays on the copy path (Lines 27-29).
      bool locked_copy = false;
      for (std::uint64_t attempt = 0;; ++attempt) {
        PAGEN_CHECK_MSG(attempt < kMaxAttempts,
                        "duplicate-retry cap exceeded at node " << t);
        const NodeId k = draws.pick_k(t, e, attempt);
        if (!locked_copy && draws.pick_direct(t, e, attempt)) {
          if (!is_dup(k)) {
            row[e] = k;
            break;
          }
        } else {
          const NodeId l = draws.pick_l(t, e, attempt);
          const NodeId v = result.targets[k * x + l];
          PAGEN_DCHECK(v != kNil);
          if (!is_dup(v)) {
            row[e] = v;
            break;
          }
          locked_copy = true;
        }
        ++result.retries;
      }
      PAGEN_DCHECK(row[e] < t);
      result.edges.push_back({t, row[e]});
    }
  }
  return result;
}

}  // namespace pagen::baseline
