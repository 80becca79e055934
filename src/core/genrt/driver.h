// genrt layer 3 — the event-loop driver: the shared rank engine of every
// request/resolved generator.
//
// The message loop around a generator's slot bookkeeping and duplicate-edge
// retry is one machine. Driver<Policy> owns that machine — the generate →
// drain → termination phases, per-destination send buffering, the
// post-batch flush rule, counting termination, the flat slot store, load
// accounting, observability spans, cooperative cancellation
// (ParallelOptions::cancel_requested, polled at every phase boundary), edge
// emission into the rank's emitter (emitter.h), and the crash-recovery
// adapter — and delegates the algorithm to a small policy object.
//
// pagen-lint: hot-path — the per-message event loop; flat tables only.
//
// A policy plugs in with (see docs/architecture.md for the full contract,
// core/engine/xk_policy.h for the one instance, Algorithm 3.2 at every x):
//
//   using Request / Resolved;         // slot-addressed wire pair (protocol.h)
//   Policy(Driver&);                  // holds algorithm state (draws, ...)
//   process_own_node(t);              // phase-1 work for one owned node
//   node_has_slots(t);                // false for clique nodes
//   request_slot / request_waiter / make_resolved / waiter_resolved;
//   resolved_slot / accept_resolved / apply_resolved / deliver_local;
//   fill_checkpoint / restore_checkpoint_extras;
//
// Every node owns config.x slots (F_t(0..x-1)).
//
// The driver's state transitions are exactly the rank lifecycle of
// docs/protocol.md §3; the recovery flow is docs/robustness.md §3.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "baseline/pa_config.h"
#include "core/genrt/emitter.h"
#include "core/genrt/protocol.h"
#include "core/genrt/recovery.h"
#include "core/genrt/slot_store.h"
#include "core/load_stats.h"
#include "core/options.h"
#include "graph/edge_list.h"
#include "mps/comm.h"
#include "mps/message.h"
#include "mps/send_buffer.h"
#include "mps/termination.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "util/error.h"

namespace pagen::core::genrt {

/// One parked party waiting for a slot to resolve: either a remote
/// requester (owner != self; `round` echoes its request) or a local node
/// whose own slot copies the awaited one (e/round meaningful per policy).
struct Waiter {
  NodeId t = 0;
  std::uint32_t e = 0;
  Rank owner = 0;
  std::uint32_t round = 0;
  /// Causal root-slot id of the parked remote request (0 = untraced: node 0
  /// never requests, so 0 is never a real root). Filled by the driver from
  /// the incoming stamp, never by policies.
  std::uint64_t root = 0;
};

/// Interval a rank sleeps in poll_wait when it has nothing runnable.
inline constexpr std::chrono::milliseconds kIdleWait{20};

template <typename P>
  requires SlotMessages<typename P::Request, typename P::Resolved>
class Driver {
 public:
  using Request = typename P::Request;
  using Resolved = typename P::Resolved;

  /// `out` is the rank incarnation's emitter; the caller finishes it after
  /// run() returns.
  Driver(const PaConfig& config, const ParallelOptions& options,
         const partition::Partition& part, mps::Comm& comm, EdgeEmitter& out)
      : config_(config),
        options_(options),
        part_(part),
        comm_(comm),
        spn_(config.x),
        tolerant_(options.transport.fault_plan.has_crash()),
        recovering_(comm.incarnation() > 0 ||
                    (options.resume && !options.checkpoint_dir.empty())),
        ob_(comm.obs()),
        chain_hist_(ob_ != nullptr
                        ? &ob_->metrics().histogram("pa.chain_latency_ns")
                        : nullptr),
        slots_(part.part_size(comm.rank()) * spn_, tolerant_, chain_hist_),
        waiters_(slots_.size()),
        emitter_(out),
        req_buf_(comm, kTagRequest, options.buffer_capacity),
        res_buf_(comm, kTagResolved, options.buffer_capacity),
        done_(comm, kTagDone, kTagStop),
        recovery_(*this),
        policy_(*this) {
    load_.nodes = part.part_size(comm.rank());
    if (ob_ != nullptr) {
      wait_depth_hist_ = &ob_->metrics().histogram("pa.wait_queue_depth");
      mailbox_gauge_ = &ob_->metrics().gauge("mps.mailbox_depth");
      if (ob_->causal()) {
        causal_ = true;
        chain_len_hist_ = &ob_->metrics().histogram("pa.chain_length");
        depth_.assign(slots_.size(), 0);
      }
    }
  }

  /// The full rank lifecycle (docs/protocol.md §3).
  void run() {
    if (comm_.incarnation() > 0) {
      // Mid-run respawn: the start rendezvous already completed in a
      // previous life; restore and announce so peers re-offer.
      const auto sp = obs::span(ob_, "recover");
      recovery_.restore_and_announce();
    } else {
      comm_.barrier();  // common start line, as mpirun would provide
      if (recovering_) {
        // Fresh-run resume (ParallelOptions::resume): all ranks restore
        // their own checkpoints together behind the barrier — no peer
        // holds state for us, so no re-offer broadcast.
        const auto sp = obs::span(ob_, "resume");
        recovery_.restore_quietly();
      }
    }

    {
      // Phase 1: process own nodes in ascending label order, pumping
      // messages between batches so requests from other ranks are never
      // starved. A recovering policy skips slots its checkpoint restored.
      const auto sp = obs::span(ob_, "generate");
      const Count my_nodes = part_.part_size(comm_.rank());
      for (Count idx = 0; idx < my_nodes; ++idx) {
        policy_.process_own_node(part_.node_at(comm_.rank(), idx));
        if ((idx + 1) % options_.node_batch == 0) {
          check_cancel();
          pump(false);
          recovery_.maybe_checkpoint(false);
        }
      }
      req_buf_.flush_all();
      recovery_.maybe_checkpoint(true);
    }

    {
      // Phase 2: serve and wait until every local slot is resolved.
      const auto sp = obs::span(ob_, "drain");
      while (unresolved_ > 0) {
        check_cancel();
        pump(true);
        recovery_.maybe_checkpoint(false);
      }
    }

    {
      // Phase 3: local completion. All responses we owe so far are flushed
      // before the done notice; afterwards we keep serving requests (always
      // flushing responses) until the global stop arrives.
      const auto sp = obs::span(ob_, "termination");
      res_buf_.flush_all();
      PAGEN_CHECK(req_buf_.empty() && res_buf_.empty());
      recovery_.maybe_checkpoint(true);
      done_.notify_local_done();
      while (!done_.stopped()) {
        check_cancel();
        pump(true);
      }
      res_buf_.flush_all();
    }

    comm_.barrier();  // nobody tears down while peers might still poll
  }

  // --- Results (read after run()) ---

  [[nodiscard]] const RankLoad& load() const { return load_; }
  /// Slots restored from a checkpoint by this incarnation's bring-up
  /// (resume or respawn); 0 on a cold start.
  [[nodiscard]] Count restored_slots() const { return recovery_.restored(); }

  // --- Facilities for the policy and the recovery adapter ---

  [[nodiscard]] const PaConfig& config() const { return config_; }
  [[nodiscard]] const ParallelOptions& options() const { return options_; }
  [[nodiscard]] const partition::Partition& part() const { return part_; }
  [[nodiscard]] mps::Comm& comm() { return comm_; }
  [[nodiscard]] Rank rank() const { return comm_.rank(); }
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] bool tolerant() const { return tolerant_; }
  [[nodiscard]] Count slots_per_node() const { return spn_; }
  [[nodiscard]] SlotStore<Request>& slots() { return slots_; }
  [[nodiscard]] P& policy() { return policy_; }
  [[nodiscard]] mps::DoneDetector& done() { return done_; }
  [[nodiscard]] obs::RankObserver* obs() const { return ob_; }
  [[nodiscard]] RankLoad& load() { return load_; }

  /// One more local slot awaits resolution (phase-1 discovery; a recovery
  /// pre-counts its open slots instead).
  void add_open_slot() { ++unresolved_; }

  /// Globally unique causal id of node `t`'s slot `slot`: t * x + e (for
  /// x = 1 just t). Used as the flow correlation id and the stamp's root
  /// across ranks.
  [[nodiscard]] std::uint64_t causal_root(NodeId t, Count slot) const {
    return static_cast<std::uint64_t>(t) * spn_ + slot % spn_;
  }

  /// Ship `req` for local slot `slot` to `owner`: buffer it, account it,
  /// and let the slot store remember it (re-offer tracking + latency stamp).
  /// Under causal tracing the request carries a stamp naming this slot as
  /// the chain root, and a flow starts on this rank's track — the "s" end
  /// of the Perfetto arrow that lands on the owner's resolve.
  void send_request(Rank owner, Count slot, const Request& req) {
    if (causal_) {
      const std::uint64_t root = causal_root(req.t, slot);
      ob_->trace().flow_start("chain", root);
      req_buf_.add_stamped(owner, req, {root, comm_.rank(), 0});
      ++load_.requests_sent;
    } else {
      offer_request(owner, req);
    }
    slots_.note_sent(slot, req);
  }

  /// Buffer `req` toward `dst` without touching the slot store (the
  /// recovery re-offer path: the slot already holds it).
  void offer_request(Rank dst, const Request& req) {
    req_buf_.add(dst, req);
    ++load_.requests_sent;
  }

  void flush_requests_to(Rank dst) { req_buf_.flush(dst); }

  void send_resolved(Rank dst, const Resolved& res) {
    res_buf_.add(dst, res);
    ++load_.resolved_sent;
  }

  /// Park `w` on `slot` until it resolves (Line 15 / Lines 19-20).
  void queue_waiter(Count slot, const Waiter& w) {
    waiters_[slot].push_back(w);
    if (w.owner == comm_.rank()) {
      ++load_.local_waits;
    } else {
      ++load_.queued;
    }
    note_queue_depth(waiters_[slot].size());
  }

  /// Causal hook for policies: the next assign_slot copies its value from
  /// already-resolved local slot `from_slot`, so the assigned slot extends
  /// that slot's dependency chain by one. No-op when causal tracing is off.
  void note_copy_depth(Count from_slot) {
    if (causal_) pending_depth_ = depth_[from_slot] + 1;
  }

  /// Slot := v. Emits the edge and answers everyone queued on the slot —
  /// locally through the policy (which may retry a duplicate), remotely
  /// with a buffered <resolved>.
  ///
  /// Causal bookkeeping: the slot's chain length is the staged
  /// pending_depth_ (1 for independent resolutions; predecessor + 1 when
  /// staged by note_copy_depth, the waiter cascade below, or an incoming
  /// stamp in handle_resolved) — exactly the |D_t| recursion of
  /// baseline/chain_tracer.cpp, so on deterministic x = 1 runs the
  /// "pa.chain_length" histogram matches thm33_dependency_chains bit for
  /// bit. Each resolution also records a chain trace event, and remote
  /// waiters get their response stamped with this slot's depth.
  void assign_slot(Count slot, NodeId t, NodeId v) {
    PAGEN_CHECK_MSG(!slots_.resolved(slot), "double assign of node " << t);
    slots_.set_value(slot, v);
    PAGEN_CHECK(unresolved_ > 0);
    --unresolved_;
    std::uint32_t depth = 1;
    if (causal_) {
      depth = pending_depth_;
      pending_depth_ = 1;
      depth_[slot] = depth;
      if (t >= 2) {  // the thm33 oracle counts |D_t| for t in [2, n) only
        chain_len_hist_->observe(depth);
        ob_->trace().chain("chain_len", causal_root(t, slot), depth);
      }
    }
    recovery_.note_resolution();
    emit_edge({t, v});
    auto& q = waiters_[slot];
    for (const Waiter& w : q) {
      if (w.owner == comm_.rank()) {
        if (causal_) pending_depth_ = depth + 1;
        policy_.deliver_local(w, v);
      } else if (causal_ && w.root != 0) {
        ob_->trace().flow_step("chain", w.root);
        res_buf_.add_stamped(w.owner, policy_.waiter_resolved(w, v),
                             {w.root, w.owner, depth});
        ++load_.resolved_sent;
      } else {
        send_resolved(w.owner, policy_.waiter_resolved(w, v));
      }
    }
    if (causal_) pending_depth_ = 1;
    q.clear();
    q.shrink_to_fit();
  }

  /// Hand one edge to the rank's emitter (a slot resolution, a restored
  /// checkpoint slot, or an x > 1 clique edge).
  void emit_edge(const graph::Edge& e) { emitter_.emit(e); }

 private:
  /// Cooperative cancellation (docs/serving.md §4): polled at every phase
  /// boundary and pump round, so a cancel lands within ~kIdleWait even on a
  /// rank that is only waiting. Throwing here unwinds through run_ranks'
  /// abort path — peers are woken, nobody wedges — and the emitter simply
  /// drops its buffered tail (a cancelled job's stream is truncated by
  /// contract).
  void check_cancel() {
    if (options_.cancel_requested && options_.cancel_requested()) {
      throw Cancelled();
    }
  }

  /// Drain and process incoming envelopes; blocking variants sleep briefly
  /// when idle. Ends every processed batch with flush_after_batch().
  void pump(bool blocking) {
    inbox_.clear();
    if (ob_ != nullptr) {
      const auto depth = static_cast<std::int64_t>(comm_.pending());
      mailbox_gauge_->set(depth);
      if (ob_->trace().sample_tick()) {
        ob_->trace().counter("mailbox_depth", depth);
      }
    }
    const bool got = blocking ? comm_.poll_wait(inbox_, kIdleWait)
                              : comm_.poll(inbox_);
    if (!got) return;
    for (const mps::Envelope& env : inbox_) {
      if (done_.handle(env)) continue;
      if (env.tag == kTagRequest) {
        std::size_t item = 0;
        mps::for_each_packed<Request>(env.payload, [&](const Request& r) {
          handle_request(env.src, r, causal_stamp_at(env, item++));
        });
      } else if (env.tag == kTagResolved) {
        std::size_t item = 0;
        mps::for_each_packed<Resolved>(env.payload, [&](const Resolved& r) {
          handle_resolved(r, causal_stamp_at(env, item++));
        });
      } else if (env.tag == kTagRecover) {
        recovery_.on_peer_recover(env.src);
      } else {
        PAGEN_CHECK_MSG(false, "unexpected tag " << env.tag);
      }
    }
    flush_after_batch();
  }

  /// THE post-batch flush rule, in one place (both generators used to
  /// hand-roll it, with drift):
  ///
  /// 1. <resolved> buffers are force-flushed after every processed batch —
  ///    the paper's RRP deadlock-avoidance rule (Section 3.5): under
  ///    round-robin partitioning every rank still has unprocessed own nodes
  ///    while serving others, so an answer parked in a partially-full
  ///    buffer could wait on a sender that is itself blocked waiting for
  ///    answers — a cycle. Flushing answers eagerly breaks it. The ablation
  ///    option exists only to measure the rule's cost under CP schemes;
  ///    once this rank has nothing unresolved the flush is unconditional
  ///    (it owes the world everything it knows).
  /// 2. <request> buffers flush only when x >= 2: only a duplicate retry
  ///    creates a request while serving a batch, and in the waiting phases
  ///    nothing else would flush it — a parked request is a parked
  ///    dependency chain. x = 1 never retries, so its requests keep
  ///    batching up to buffer capacity (phase 1 flushes them at its end).
  void flush_after_batch() {
    if (options_.flush_resolved_after_batch || unresolved_ == 0) {
      res_buf_.flush_all();
    }
    if (spn_ >= 2) req_buf_.flush_all();
  }

  /// Per-item stamp of a mixed batch, or null when the item is unstamped
  /// (untraced run, or a recovery re-offer padded with origin = -1).
  static const mps::CausalStamp* causal_stamp_at(const mps::Envelope& env,
                                                 std::size_t i) {
    if (i >= env.causal.size()) return nullptr;
    const mps::CausalStamp& st = env.causal[i];
    return st.origin >= 0 ? &st : nullptr;
  }

  /// Owner side of <request> (Lines 12-15 / 17-20): answer from the slot
  /// store or park the requester. A stamped request continues its flow here
  /// ("t" on this rank's track); the answer — immediate or deferred via the
  /// waiter — echoes the root with this slot's chain depth as the hop.
  void handle_request(Rank src, const Request& req,
                      const mps::CausalStamp* stamp = nullptr) {
    ++load_.requests_received;
    PAGEN_DCHECK(part_.owner(req.k) == comm_.rank());
    const Count s = policy_.request_slot(req);
    if (causal_ && stamp != nullptr) ob_->trace().flow_step("chain", stamp->root);
    if (slots_.resolved(s)) {
      if (causal_ && stamp != nullptr) {
        res_buf_.add_stamped(src, policy_.make_resolved(req, slots_.value(s)),
                             {stamp->root, src, depth_[s]});
        ++load_.resolved_sent;
      } else {
        send_resolved(src, policy_.make_resolved(req, slots_.value(s)));
      }
    } else {
      Waiter w = policy_.request_waiter(req, src);
      if (stamp != nullptr) w.root = stamp->root;
      queue_waiter(s, w);
    }
  }

  /// Requester side of <resolved>: filter (stale rounds after a recovery
  /// re-offer), close the slot-store entry (latency + re-offer bookkeeping),
  /// then let the policy accept or retry the value. A stamped answer ends
  /// its flow ("f") and stages hop + 1 as the depth of whatever slot the
  /// policy assigns while applying it.
  void handle_resolved(const Resolved& res,
                       const mps::CausalStamp* stamp = nullptr) {
    ++load_.resolved_received;
    if (!policy_.accept_resolved(res)) return;
    slots_.note_answered(policy_.resolved_slot(res));
    if (causal_ && stamp != nullptr) {
      ob_->trace().flow_end("chain", stamp->root);
      pending_depth_ = stamp->hop + 1;
    }
    policy_.apply_resolved(res);
    if (causal_) pending_depth_ = 1;
  }

  void note_queue_depth(std::size_t depth) {
    load_.max_queue_depth = std::max<Count>(load_.max_queue_depth, depth);
    if (wait_depth_hist_ != nullptr) wait_depth_hist_->observe(depth);
  }

  const PaConfig& config_;
  const ParallelOptions& options_;
  const partition::Partition& part_;
  mps::Comm& comm_;
  Count spn_;        ///< slots per node: config.x
  bool tolerant_;    ///< crash plan active: absorb duplicate resolutions
  bool recovering_;  ///< this Comm is a respawned incarnation

  // Observability (all null when observation is off).
  obs::RankObserver* ob_;
  obs::Histogram* chain_hist_;
  obs::Histogram* wait_depth_hist_ = nullptr;
  obs::Gauge* mailbox_gauge_ = nullptr;

  // Causal tracing (ob_ != nullptr && cfg.causal). depth_[s] mirrors the
  // Theorem 3.3 recursion |D_t|: 1 for an independent resolution, parent + 1
  // for a copy — staged through pending_depth_ by whichever path knows the
  // parent (local copy via note_copy_depth, waiter cascade, incoming stamp).
  obs::Histogram* chain_len_hist_ = nullptr;
  bool causal_ = false;
  std::vector<std::uint32_t> depth_;  ///< per-slot chain depth (causal only)
  std::uint32_t pending_depth_ = 1;   ///< depth the next assign_slot records

  SlotStore<Request> slots_;
  std::vector<std::vector<Waiter>> waiters_;  ///< Q_{k(,l)} by slot
  EdgeEmitter& emitter_;
  std::vector<mps::Envelope> inbox_;
  mps::SendBuffer<Request> req_buf_;
  mps::SendBuffer<Resolved> res_buf_;
  mps::DoneDetector done_;
  RankLoad load_;
  Count unresolved_ = 0;
  Recovery<Driver> recovery_;
  P policy_;  ///< constructed last: sees every runtime member initialized
};

}  // namespace pagen::core::genrt
