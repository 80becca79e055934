// Property oracles for model-checked generator runs (tools/mpsmc and
// tests/mps_modelcheck_test.cpp).
//
// PropertyRunner adapts core::generate into an mps::mc::Runner: each
// invocation builds one ParallelOptions with the given Scheduler as the
// delivery hook, runs the generator, and checks every safety property we
// have an oracle for:
//
//  * termination: the run returns (deadlock/livelock are detected by the
//    Scheduler itself and folded into the verdict by the explorer);
//  * exact edge count (expected_edge_count) and structural sanity
//    (endpoints in range, no self-loops, no duplicate edges);
//  * bitwise-identical output across schedules, at every x — targets and
//    the normalized edge list hash-match a schedule-free P = 1 reference
//    run (F is a pure function of (seed, n, x, p): every draw is pure and
//    the rank commits each node's slots in order);
//  * optionally (causal_check): the merged "pa.chain_length" histogram from
//    causal tracing must exactly equal the chain-depth oracle — at x = 1
//    the baseline::ChainTrace |D_t| recursion (Theorem 3.3), at x > 1 the
//    histogram of the one-rank reference run, traced the same way. Valid
//    per schedule because the dependency DAG is schedule-independent.
//
// The runner never throws: WorldAborted (the expected unwind of schedules
// the Scheduler tears down) and any other exception become a failed
// RunOutcome for the explorer to attribute.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "baseline/chain_tracer.h"
#include "baseline/pa_config.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "mps/collectives.h"
#include "mps/modelcheck.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/types.h"

namespace pagen::core::mc {

class PropertyRunner {
 public:
  struct Options {
    PaConfig pa;
    int ranks = 2;
    partition::Scheme scheme = partition::Scheme::kRrp;
    /// Small buffers and batches on purpose: every flush boundary is a
    /// scheduling point, so small values maximize explorable interleavings
    /// per unit of work.
    std::size_t buffer_capacity = 8;
    std::size_t node_batch = 16;
    /// Set false to re-introduce the RRP flush-rule deadlock (the PR 2
    /// regression) — the model checker's canary.
    bool flush_resolved_after_batch = true;
    /// Verify chain depths via causal tracing against causal_oracle().
    bool causal_check = false;
  };

  explicit PropertyRunner(Options options) : options_(std::move(options)) {
    // Schedule-free reference: F is a pure function of the config, so a
    // plain single-rank run pins the expected output of every schedule and
    // every rank count. At x > 1 a causal check traces it for the oracle.
    ParallelOptions ref;
    ref.ranks = 1;
    std::optional<obs::Session> session;
    if (options_.causal_check && options_.pa.x > 1) {
      session.emplace(1, causal_config());
      ref.obs = &*session;
    }
    const ParallelResult result = generate(options_.pa, ref);
    ref_targets_hash_ = fnv1a_words(result.targets);
    ref_edges_hash_ = graph::hash_edges(result.edges);
    if (session) {
      oracle_ = merged_chain_lengths(*session);
    } else if (options_.causal_check) {
      const baseline::ChainTrace trace(options_.pa);
      const auto dep = trace.dependency_lengths();
      for (NodeId t = 2; t < options_.pa.n; ++t) oracle_.observe(dep[t]);
    }
  }

  /// The Runner for mps::mc::explore_* / replay_schedule. The returned
  /// callable borrows `this`; keep the PropertyRunner alive.
  [[nodiscard]] mps::mc::Runner runner() {
    return [this](mps::mc::Scheduler& sched) { return run_once(sched); };
  }

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t ref_targets_hash() const {
    return ref_targets_hash_;
  }
  [[nodiscard]] std::uint64_t ref_edges_hash() const {
    return ref_edges_hash_;
  }

  /// The chain-length histogram every schedule must reproduce (empty
  /// unless causal_check).
  [[nodiscard]] const obs::Histogram& chain_oracle() const { return oracle_; }

  /// The name of that oracle, for reports ("" unless causal_check).
  [[nodiscard]] std::string causal_oracle() const {
    if (!options_.causal_check) return {};
    return options_.pa.x == 1 ? "baseline::ChainTrace"
                              : "the one-rank reference run";
  }

  /// p in its shortest round-trip form: a dumped trace replays the exact p
  /// it ran (std::to_string would keep six decimals).
  [[nodiscard]] static std::string p_string(double p) {
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof buf, p).ptr};
  }

  /// Record the generator config into a trace's meta block so a dumped
  /// schedule is replayable without the command line that produced it.
  void fill_meta(mps::mc::ScheduleTrace& trace) const {
    trace.meta["n"] = std::to_string(options_.pa.n);
    trace.meta["x"] = std::to_string(options_.pa.x);
    trace.meta["p"] = p_string(options_.pa.p);
    trace.meta["seed"] = std::to_string(options_.pa.seed);
    trace.meta["ranks"] = std::to_string(options_.ranks);
    trace.meta["scheme"] = partition::to_string(options_.scheme);
    trace.meta["buffer_capacity"] = std::to_string(options_.buffer_capacity);
    trace.meta["node_batch"] = std::to_string(options_.node_batch);
    trace.meta["flush_resolved_after_batch"] =
        std::to_string(options_.flush_resolved_after_batch ? 1 : 0);
    trace.meta["causal_check"] = std::to_string(options_.causal_check ? 1 : 0);
  }

  /// Rebuild runner options from a dumped trace's meta block (the inverse
  /// of fill_meta). Every value must parse whole; returns false with
  /// `error` naming the key when one is missing or malformed.
  static bool options_from_meta(const mps::mc::ScheduleTrace& trace,
                                Options& out, std::string& error) {
    const auto find = [&](const char* key) -> const std::string* {
      const auto it = trace.meta.find(key);
      if (it != trace.meta.end()) return &it->second;
      error = std::string("trace meta is missing \"") + key + '"';
      return nullptr;
    };
    const auto malformed = [&](const char* key, const std::string& v) {
      error = std::string("trace meta \"") + key + "\" is malformed: '" + v +
              "'";
      return false;
    };
    const auto get = [&](const char* key, auto& into) {
      const std::string* v = find(key);
      if (v == nullptr) return false;
      const char* last = v->data() + v->size();
      const auto [end, ec] = std::from_chars(v->data(), last, into);
      if (ec != std::errc() || end != last) return malformed(key, *v);
      return true;
    };
    if (!get("n", out.pa.n) || !get("x", out.pa.x) || !get("p", out.pa.p) ||
        !get("seed", out.pa.seed) || !get("ranks", out.ranks)) {
      return false;
    }
    const std::string* scheme = find("scheme");
    if (scheme == nullptr) return false;
    try {
      out.scheme = partition::scheme_from_string(*scheme);
    } catch (const CheckError&) {
      return malformed("scheme", *scheme);
    }
    unsigned flush = 0;
    unsigned causal = 0;
    if (!get("buffer_capacity", out.buffer_capacity) ||
        !get("node_batch", out.node_batch) ||
        !get("flush_resolved_after_batch", flush) ||
        !get("causal_check", causal)) {
      return false;
    }
    out.flush_resolved_after_batch = flush != 0;
    out.causal_check = causal != 0;
    return true;
  }

 private:
  mps::mc::RunOutcome run_once(mps::mc::Scheduler& sched) {
    ++runs_;
    ParallelOptions opt;
    opt.ranks = options_.ranks;
    opt.scheme = options_.scheme;
    opt.buffer_capacity = options_.buffer_capacity;
    opt.node_batch = options_.node_batch;
    opt.flush_resolved_after_batch = options_.flush_resolved_after_batch;
    opt.transport.delivery_hook = &sched;

    std::optional<obs::Session> session;
    if (options_.causal_check) {
      session.emplace(options_.ranks, causal_config());
      opt.obs = &*session;
    }

    ParallelResult result;
    try {
      result = generate(options_.pa, opt);
    } catch (const mps::WorldAborted&) {
      // Expected unwind of schedules the Scheduler tears down (deadlock,
      // prune, step limit); the explorer attributes the real reason.
      return {true, "world aborted"};
    } catch (const std::exception& e) {
      return {true, std::string("exception: ") + e.what()};
    }
    return check(result, session ? &*session : nullptr);
  }

  [[nodiscard]] static obs::Config causal_config() {
    obs::Config cfg;
    cfg.enabled = true;
    cfg.causal = true;
    cfg.ring_capacity = 1 << 12;
    return cfg;
  }

  mps::mc::RunOutcome check(const ParallelResult& result,
                            const obs::Session* session) {
    const Count expected = expected_edge_count(options_.pa);
    if (result.edges.size() != expected) {
      return {true, "edge count " + std::to_string(result.edges.size()) +
                        " != expected " + std::to_string(expected)};
    }
    graph::EdgeList normalized = result.edges;
    graph::normalize(normalized);
    for (std::size_t i = 0; i < normalized.size(); ++i) {
      const graph::Edge& e = normalized[i];
      if (e.u >= options_.pa.n || e.v >= options_.pa.n) {
        return {true, "edge endpoint out of range"};
      }
      if (e.u == e.v) {
        return {true, "self-loop at node " + std::to_string(e.u)};
      }
      if (i > 0 && normalized[i - 1] == e) {
        return {true, "duplicate edge (" + std::to_string(e.u) + ", " +
                          std::to_string(e.v) + ")"};
      }
    }
    if (fnv1a_words(result.targets) != ref_targets_hash_) {
      return {true, "targets differ from the schedule-free reference"};
    }
    if (graph::hash_edges(result.edges) != ref_edges_hash_) {
      return {true, "edges differ from the schedule-free reference"};
    }
    if (session != nullptr) {
      if (const std::string err = check_chain_lengths(*session);
          !err.empty()) {
        return {true, err};
      }
    }
    return {};
  }

  /// Every rank's "pa.chain_length" histogram of `session`, merged.
  [[nodiscard]] static obs::Histogram merged_chain_lengths(
      const obs::Session& session) {
    obs::Histogram merged;
    for (int r = 0; r < session.nranks(); ++r) {
      const auto& hists = session.rank(r).metrics().histograms();
      const auto it = hists.find("pa.chain_length");
      if (it != hists.end()) merged += it->second;
    }
    return merged;
  }

  [[nodiscard]] std::string check_chain_lengths(
      const obs::Session& session) const {
    const obs::Histogram merged = merged_chain_lengths(session);
    if (merged.count() == oracle_.count() && merged.sum() == oracle_.sum() &&
        merged.min() == oracle_.min() && merged.max() == oracle_.max()) {
      return {};
    }
    std::ostringstream os;
    os << "causal chain-length mismatch vs " << causal_oracle() << ": count "
       << merged.count() << "/" << oracle_.count() << ", sum " << merged.sum()
       << "/" << oracle_.sum() << ", max " << merged.max() << "/"
       << oracle_.max();
    return os.str();
  }

  Options options_;
  std::uint64_t ref_targets_hash_ = 0;
  std::uint64_t ref_edges_hash_ = 0;
  obs::Histogram oracle_;
  std::uint64_t runs_ = 0;
};

}  // namespace pagen::core::mc
