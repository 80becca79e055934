// pagen-lint: policy-impl — the X1Policy speaks only through the Driver.
#include "core/parallel_pa.h"

#include "baseline/pa_draws.h"
#include "core/genrt/driver.h"
#include "core/genrt/launch.h"
#include "core/genrt/protocol.h"
#include "util/error.h"

namespace pagen::core {
namespace {

/// Algorithm 3.1 as a genrt policy: one slot per node (F_t itself), no
/// duplicate retries, no rounds. Everything else — phases, buffering, flush
/// rules, termination, checkpoints, recovery — lives in the genrt runtime.
class X1Policy {
 public:
  using Request = RequestX1;
  using Resolved = ResolvedX1;
  /// Serving messages never creates fresh requests for x = 1 (no duplicate
  /// retries), so only phase 1 flushes the request buffer.
  static constexpr bool kFlushRequestsAfterPump = false;

  static Count slots_per_node(const PaConfig&) { return 1; }

  using D = genrt::Driver<X1Policy>;

  explicit X1Policy(D& d) : d_(d), draws_(d.config()) {}

  /// Node 0 has no outgoing choice; everything else owns one slot.
  [[nodiscard]] static bool node_has_slots(NodeId t) { return t != 0; }

  void process_own_node(NodeId t) {
    if (t == 0) return;  // node 0 has no outgoing choice
    const Count s = d_.part().local_index(t);
    if (d_.recovering() && d_.slots().resolved(s)) return;  // restored
    if (!d_.recovering()) d_.add_open_slot();  // recovery pre-counts these
    if (t == 1) {
      resolve(t, 0);  // bootstrap edge (1, 0)
      return;
    }
    const NodeId k = draws_.pick_k(t, 0, 0);
    if (draws_.pick_direct(t, 0, 0)) {
      resolve(t, k);  // Line 5-6: F_t = k
      return;
    }
    // Line 8-9: F_t = F_k, which may not be known yet.
    const Rank owner = d_.part().owner(k);
    if (owner == d_.rank()) {
      const Count ks = d_.part().local_index(k);
      if (d_.slots().resolved(ks)) {
        d_.note_copy_depth(ks);  // F_t extends F_k's dependency chain
        resolve(t, d_.slots().value(ks));
      } else {
        d_.queue_waiter(ks, {.t = t, .owner = d_.rank()});
      }
    } else {
      d_.send_request(owner, s, {t, k});
    }
  }

  // --- Request/resolved mapping (Lines 12-19) ---

  [[nodiscard]] Count request_slot(const Request& req) const {
    return d_.part().local_index(req.k);
  }
  [[nodiscard]] genrt::Waiter request_waiter(const Request& req,
                                             Rank src) const {
    return {.t = req.t, .owner = src};  // Line 15: queue Q_k
  }
  [[nodiscard]] static Resolved make_resolved(const Request& req, NodeId v) {
    return {req.t, v};  // Line 12-13
  }
  [[nodiscard]] static Resolved waiter_resolved(const genrt::Waiter& w,
                                                NodeId v) {
    return {w.t, v};
  }
  [[nodiscard]] Count resolved_slot(const Resolved& res) const {
    return d_.part().local_index(res.t);
  }
  [[nodiscard]] static bool accept_resolved(const Resolved&) {
    return true;  // no rounds for x = 1: every answer is current
  }
  void apply_resolved(const Resolved& res) { resolve(res.t, res.v); }
  void deliver_local(const genrt::Waiter& w, NodeId v) { resolve(w.t, v); }

  // --- Checkpoint extras: x = 1 has none beyond the F slice ---

  static void fill_checkpoint(RankCheckpoint&) {}
  static void restore_checkpoint_extras(const RankCheckpoint&) {}

 private:
  /// F_t := v (cascades to every waiter of t inside the runtime).
  void resolve(NodeId t, NodeId v) {
    const Count s = d_.part().local_index(t);
    if (d_.slots().resolved(s)) {
      // Crash-tolerant mode: a recovery legitimately produces duplicate
      // resolutions (a checkpoint-restored slot answered again via
      // re-offer, or a peer's re-request of a waiter that survived). The
      // value must agree — draws are pure in (seed, t), so F_t is unique.
      PAGEN_CHECK_MSG(d_.tolerant(), "double resolve of node " << t);
      PAGEN_CHECK_MSG(d_.slots().value(s) == v,
                      "conflicting resolution of node " << t);
      return;
    }
    d_.assign_slot(s, t, v);
  }

  D& d_;
  DrawSchema draws_;
};

}  // namespace

ParallelResult generate_pa_x1(const PaConfig& config,
                              const ParallelOptions& options) {
  PAGEN_CHECK_MSG(config.x == 1, "generate_pa_x1 requires x == 1");
  PAGEN_CHECK(config.n >= 2);
  PAGEN_CHECK_MSG(config.p >= 0.0 && config.p <= 1.0, "p must be in [0, 1]");
  PAGEN_CHECK(options.ranks >= 1);
  PAGEN_CHECK_MSG(static_cast<NodeId>(options.ranks) <= config.n,
                  "more ranks than nodes");
  return genrt::launch<X1Policy>(config, options);
}

}  // namespace pagen::core
