// MpsEngine: the paper's request/resolved message-passing protocol. One
// MpsRank per rank runs Algorithm 3.2 for every x >= 1.
//
// The rank commits a node's slots in order: slot e is decided only once
// slots 0..e-1 are final, and its duplicate check sees exactly those, as in
// baseline::copy_model_general. Every draw is pure in (t, e, attempt) and
// every dependency points strictly backwards, so the edge set is
// copy_model_general's for every x, rank count, partitioning scheme,
// buffering, message timing, transport fault plan and crash recovery (at
// x = 1, with no duplicates to avoid, the targets are copy_model_targets).
//
// MpsRank's state transitions are exactly the rank lifecycle of
// docs/protocol.md §3; the recovery flow is docs/robustness.md §3. The wire
// pair lives in genrt/protocol.h, the per-slot tables in genrt/slot_store.h.
// The rank is a template over its F word (u32 or u64), which the engine picks
// once from n (genrt::slot_words_fit_u32); both widths run the same draws in
// the same order, so the output does not depend on the choice.
//
// Everything here has internal linkage: with external linkage GCC stopped
// inlining the packed-item loops into MpsRank::pump and MpsRank::run into
// the rank body.
//
// pagen-lint: hot-path — the per-message event loop; flat tables only.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "core/checkpoint.h"
#include "core/engine/engine.h"
#include "core/genrt/emitter.h"
#include "core/genrt/protocol.h"
#include "core/genrt/slot_store.h"
#include "core/load_stats.h"
#include "core/options.h"
#include "mps/comm.h"
#include "mps/message.h"
#include "mps/send_buffer.h"
#include "mps/termination.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/timer.h"
#include "util/types.h"

namespace pagen::core {
namespace {

/// Interval a rank sleeps in poll_wait when it has nothing runnable.
constexpr std::chrono::milliseconds kIdleWait{20};

/// The retry state of a slot that drew a duplicate: its draw attempt and
/// the Lines 26-29 copy-path latch. A slot that never retried has none.
struct RetryState {
  std::uint32_t attempts = 0;
  bool locked_copy = false;
};

/// FNV-1a over rank `rank`'s owned nodes in partition-local order — the
/// order of its checkpoint slots. Two partitions fingerprint alike only when
/// they hand the rank the same nodes in the same order.
std::uint64_t owned_nodes_hash(const partition::Partition& part, Rank rank) {
  Fnv1a h;
  const Count size = part.part_size(rank);
  for (Count i = 0; i < size; ++i) h.word(part.node_at(rank, i));
  return h.digest();
}

template <typename Word>
class MpsRank;

/// The checkpoint adapter of a rank (docs/robustness.md §3):
///
///  * restore() — resume bring-up (ParallelOptions::resume: a service retry,
///    or core::generate's relaunch after an injected crash). Every rank
///    restores its own checkpoint behind the common start barrier, so no
///    peer holds state for a dead world: the F slice (plus the attempt
///    counters and copy-path latches, folded back into the rank's table of
///    retried slots) comes back, the restored edges are
///    re-emitted (the sink contract is at-least-once under crashes), and
///    slots left kNil are replayed by the generate phase exactly as in the
///    first run (re-drawing identically from any restored attempt). A
///    missing checkpoint leaves the rank a plain cold start; a fresh run
///    (resume off) removes its rank's file before the start barrier, so
///    its relaunch never meets an earlier run's checkpoint.
///  * note_resolution() / maybe_checkpoint() — the checkpoint write cadence.
///    A write expands the retried slots into the checkpoint's dense per-slot
///    extras, so the file is the same as if every slot carried them.
template <typename Word>
class Recovery {
 public:
  /// Constructed last by the rank; fingerprints the rank's nodes only when
  /// checkpointing is on.
  explicit Recovery(MpsRank<Word>& rank);

  void restore();

  /// Slots this rank restored from its checkpoint (0 on a cold start).
  [[nodiscard]] Count restored() const { return restored_; }

  /// One slot resolved since the last checkpoint write.
  void note_resolution() { ++resolved_since_ckpt_; }

  void maybe_checkpoint(bool force);

 private:
  MpsRank<Word>& r_;
  std::uint64_t owned_hash_;  ///< owned_nodes_hash, 0 without checkpointing
  Count resolved_since_ckpt_ = 0;
  Count restored_ = 0;
};

/// Algorithm 3.2 on one rank: x slots per node (F_t(e)), committed in
/// order, an initial x-clique, and duplicate-edge avoidance against the
/// row's earlier slots — direct-path duplicates retry with a fresh
/// (k, coin) (paper Lines 9-10), copy-path duplicates re-draw (k, l) and
/// latch onto the copy path (Lines 26-29).
///
/// Around the algorithm the rank owns the generate → drain → termination
/// phases, per-destination send buffering, the post-batch flush rule,
/// counting termination, the waiter queues, load accounting, observability
/// spans, cooperative cancellation (ParallelOptions::cancel_requested,
/// polled at every phase boundary), edge emission into the rank's emitter,
/// and its checkpoint adapter.
template <typename Word>
class MpsRank {
 public:
  /// `out` is the rank's emitter; the caller finishes it after run()
  /// returns.
  MpsRank(const PaConfig& config, const ParallelOptions& options,
          const partition::Partition& part, mps::Comm& comm,
          genrt::EdgeEmitter& out)
      : config_(config),
        options_(options),
        part_(part),
        comm_(comm),
        x_(config.x),
        draws_(config),
        recovering_(options.resume && !options.checkpoint_dir.empty()),
        ob_(comm.obs()),
        chain_hist_(ob_ != nullptr
                        ? &ob_->metrics().histogram("pa.chain_latency_ns")
                        : nullptr),
        slots_(part.part_size(comm.rank()) * x_),
        waiters_(slots_.size()),
        emitter_(out),
        req_buf_(comm, kTagRequest, options.buffer_capacity),
        res_buf_(comm, kTagResolved, options.buffer_capacity),
        done_(comm, kTagDone, kTagStop),
        recovery_(*this) {
    load_.nodes = part.part_size(comm.rank());
    PAGEN_DCHECK(config.n <= genrt::SlotStore<Word>::kMaxNodes);
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
    if (!options_.resume && !options_.checkpoint_dir.empty()) {
      // A fresh run starts with no checkpoint of its own: a file an earlier
      // run left in a reused directory must not reach this run's crash
      // relaunch, which restores whatever file each rank finds.
      std::filesystem::remove(
          checkpoint_path(options_.checkpoint_dir, comm_.rank()));
    }
    comm_.barrier();  // common start line, as mpirun would provide
    if (recovering_) {
      // Resume: all ranks restore their own checkpoints behind the barrier.
      const auto sp = obs::span(ob_, "resume");
      recovery_.restore();
    }

    {
      // Phase 1: process own nodes in ascending label order, pumping
      // messages between batches so requests from other ranks are never
      // starved. A recovering rank skips slots its checkpoint restored.
      const auto sp = obs::span(ob_, "generate");
      const Count my_nodes = part_.part_size(comm_.rank());
      for (Count idx = 0; idx < my_nodes; ++idx) {
        process_own_node(part_.node_at(comm_.rank(), idx));
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

  [[nodiscard]] const RankLoad& load() const { return load_; }
  /// Slots restored from a checkpoint by a resume; 0 on a cold start.
  [[nodiscard]] Count restored_slots() const { return recovery_.restored(); }

 private:
  friend class Recovery<Word>;

  // --- Algorithm 3.2 (Lines 3-29) ---

  /// Node t's slot e: local_index(t) * x + e.
  [[nodiscard]] Count slot(NodeId t, std::uint32_t e) const {
    return part_.local_index(t) * x_ + e;
  }

  /// Phase-1 work for one owned node.
  void process_own_node(NodeId t) {
    if (t < x_) {
      // Initial clique: the larger endpoint emits each clique edge.
      for (NodeId i = 0; i < t; ++i) emitter_.emit({t, i});
      return;
    }
    for (std::uint32_t e = 0; e < x_; ++e) {
      const Count s = slot(t, e);
      if (recovering_ && slots_.resolved(s)) continue;  // restored
      ++unresolved_;
      if (t == x_) {
        // Bootstrap convention (DESIGN.md §5): node x connects to the
        // whole clique, so F_x(e) = e deterministically.
        assign(s, t, e, e);
      } else {
        try_edge(s, t, e);
      }
    }
  }

  /// Slot s's draw attempt and copy-path latch (0 and unlatched until the
  /// slot first retries; x = 1 never retries).
  [[nodiscard]] RetryState retry_of(Count s) const {
    const RetryState* r = retries_.find(s);
    return r != nullptr ? *r : RetryState{};
  }

  /// Slot s drew a duplicate: next attempt, latched onto the copy path when
  /// `lock` (Lines 26-29) or free to redraw the coin (Lines 9-10).
  void retry(Count s, bool lock) {
    RetryState& r = retries_[s];
    if (lock) r.locked_copy = true;
    ++r.attempts;
    ++load_.retries;
  }

  /// True if v already is one of the row's final slots 0..e-1 (the k ∈ F_t
  /// check of the sequential model); `row` is the node's slot 0.
  [[nodiscard]] bool is_duplicate(Count row, std::uint32_t e, NodeId v) const {
    for (Count i = 0; i < e; ++i) {
      if (slots_.value(row + i) == v) return true;
    }
    return false;
  }

  /// Drive edge (t, e), slot s, forward until it is assigned, parked, in a
  /// local queue, or waiting on a remote request (Lines 3-14 and 26-29).
  void try_edge(Count s, NodeId t, std::uint32_t e) {
    for (;;) {
      const RetryState r = retry_of(s);
      const std::uint64_t attempt = r.attempts;
      PAGEN_CHECK_MSG(attempt < kMaxAttempts,
                      "duplicate-retry cap exceeded at node " << t);
      const NodeId k = draws_.pick_k(t, e, attempt);
      if (!r.locked_copy && draws_.pick_direct(t, e, attempt)) {
        if (offer(s, t, e, k)) return;  // Lines 5-10
        continue;
      }
      const auto l = static_cast<std::uint32_t>(draws_.pick_l(t, e, attempt));
      const Rank owner = part_.owner(k);
      if (owner != comm_.rank()) {
        send_request(owner, s, {t, k, e, l});  // Line 14
        return;
      }
      const Count ks = slot(k, l);
      if (!slots_.resolved(ks)) {
        queue_waiter(ks, {t, e, comm_.rank()});  // local Q_{k,l}
        return;
      }
      // F_t(e) extends F_k(l)'s dependency chain by one.
      if (causal_) pending_depth_ = depth_[ks] + 1;
      if (offer(s, t, e, slots_.value(ks))) return;  // Lines 21-29
    }
  }

  /// Slot s (edge (t, e)) knows v, its candidate at the current attempt.
  /// Decide it once slots 0..e-1 are final: assign it, or on a duplicate
  /// retry on the path that drew it — Lines 9-10 (fresh k and coin) on the
  /// direct path, Lines 26-29 (stay on the copy path) on the copy path.
  /// Until then the candidate parks in the slot, with the chain depth it
  /// would have had at once, and the commit of slot e-1 offers it again.
  /// Returns false when the slot moved to its next attempt.
  bool offer(Count s, NodeId t, std::uint32_t e, NodeId v) {
    if (e > 0 && !slots_.resolved(s - 1)) {
      slots_.park(s, v);
      if (causal_) {
        depth_[s] = pending_depth_;
        pending_depth_ = 1;
      }
      return true;
    }
    if (!is_duplicate(s - e, e, v)) {
      assign(s, t, e, v);
      return true;
    }
    const RetryState r = retry_of(s);
    const bool direct = !r.locked_copy && draws_.pick_direct(t, e, r.attempts);
    retry(s, /*lock=*/!direct);
    if (causal_) pending_depth_ = 1;
    return false;
  }

  /// A value arrived for edge (t, e), slot s: a remote answer or a local
  /// copy source that resolved (Lines 21-29).
  void on_resolved(Count s, NodeId t, std::uint32_t e, NodeId v) {
    PAGEN_CHECK_MSG(!slots_.resolved(s) && !slots_.parked(s),
                    "duplicate resolution of (" << t << "," << e << ")");
    if (!offer(s, t, e, v)) try_edge(s, t, e);
  }

  /// F_t(e) := v for slot s, the commit of edge (t, e). The one place a
  /// slot resolves: it emits the edge, answers everyone queued on the slot
  /// — locally through on_resolved (which may retry a duplicate), remotely
  /// with a buffered <resolved> — and then offers slot e+1's parked
  /// candidate.
  ///
  /// Causal bookkeeping: the slot's chain length is the staged
  /// pending_depth_ (1 for independent resolutions; predecessor + 1 when
  /// staged by a local copy in try_edge, the waiter cascade below, or an
  /// incoming stamp in handle_resolved) — exactly the |D_t| recursion of
  /// baseline/chain_tracer.cpp, so on deterministic x = 1 runs the
  /// "pa.chain_length" histogram matches thm33_dependency_chains bit for
  /// bit. Each resolution also records a chain trace event, and remote
  /// waiters get their response stamped with this slot's depth.
  void assign(Count s, NodeId t, std::uint32_t e, NodeId v) {
    PAGEN_DCHECK(e == 0 || slots_.resolved(s - 1));
    PAGEN_DCHECK(!is_duplicate(s - e, e, v));
    PAGEN_CHECK_MSG(!slots_.resolved(s), "double assign of node " << t);
    slots_.set_value(s, v);
    PAGEN_CHECK(unresolved_ > 0);
    --unresolved_;
    std::uint32_t depth = 1;
    if (causal_) {
      depth = pending_depth_;
      pending_depth_ = 1;
      depth_[s] = depth;
      if (t >= 2) {  // the thm33 oracle counts |D_t| for t in [2, n) only
        chain_len_hist_->observe(depth);
        ob_->trace().chain("chain_len", causal_root(t, s), depth);
      }
    }
    recovery_.note_resolution();
    emitter_.emit({t, v});
    waiters_.drain(s, [&](const genrt::Waiter& w) {
      if (w.owner == comm_.rank()) {
        if (causal_) pending_depth_ = depth + 1;
        on_resolved(slot(w.t, w.e), w.t, w.e, v);
      } else if (causal_ && w.root != 0) {
        ob_->trace().flow_step("chain", w.root);
        res_buf_.add_stamped(w.owner, {w.t, v, w.e}, {w.root, w.owner, depth});
        ++load_.resolved_sent;
      } else {
        send_resolved(w.owner, {w.t, v, w.e});
      }
    });
    if (causal_) pending_depth_ = 1;
    if (e + 1 < x_ && slots_.parked(s + 1)) {
      if (causal_) pending_depth_ = depth_[s + 1];
      if (!offer(s + 1, t, e + 1, slots_.unpark(s + 1))) {
        try_edge(s + 1, t, e + 1);
      }
    }
  }

  // --- Messaging ---

  /// Globally unique causal id of node `t`'s slot `s`: t * x + e (for
  /// x = 1 just t). Used as the flow correlation id and the stamp's root
  /// across ranks.
  [[nodiscard]] std::uint64_t causal_root(NodeId t, Count s) const {
    return static_cast<std::uint64_t>(t) * x_ + s % x_;
  }

  /// Ship `req` for local slot `s` to `owner`: buffer it, account it, and
  /// (when observing) stamp its departure for the slot's chain latency; a
  /// slot has at most one request outstanding (docs/protocol.md §4), and a
  /// re-send after a duplicate retry restarts the clock. Under causal
  /// tracing the request
  /// carries a stamp naming this slot as the chain root, and a flow starts
  /// on this rank's track — the "s" end of the Perfetto arrow that lands on
  /// the owner's resolve.
  void send_request(Rank owner, Count s, const RequestXk& req) {
    if (causal_) {
      const std::uint64_t root = causal_root(req.t, s);
      ob_->trace().flow_start("chain", root);
      req_buf_.add_stamped(owner, req, {root, comm_.rank(), 0});
    } else {
      req_buf_.add(owner, req);
    }
    ++load_.requests_sent;
    if (chain_hist_ != nullptr) sent_at_[s] = now_ns();
  }

  void send_resolved(Rank dst, const ResolvedXk& res) {
    res_buf_.add(dst, res);
    ++load_.resolved_sent;
  }

  /// Park `w` on slot `s` until it resolves (Line 15 / Lines 19-20).
  void queue_waiter(Count s, const genrt::Waiter& w) {
    const std::uint32_t depth = waiters_.push(s, w);
    if (w.owner == comm_.rank()) {
      ++load_.local_waits;
    } else {
      ++load_.queued;
    }
    load_.max_queue_depth = std::max<Count>(load_.max_queue_depth, depth);
    if (wait_depth_hist_ != nullptr) wait_depth_hist_->observe(depth);
  }

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
        mps::for_each_packed<RequestXk>(env.payload, [&](const RequestXk& r) {
          handle_request(env.src, r, causal_stamp_at(env, item++));
        });
      } else if (env.tag == kTagResolved) {
        std::size_t item = 0;
        mps::for_each_packed<ResolvedXk>(env.payload, [&](const ResolvedXk& r) {
          handle_resolved(r, causal_stamp_at(env, item++));
        });
      } else {
        PAGEN_CHECK_MSG(false, "unexpected tag " << env.tag);
      }
    }
    flush_after_batch();
  }

  /// THE post-batch flush rule, in one place:
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
    if (x_ >= 2) req_buf_.flush_all();
  }

  /// Per-item stamp of a mixed batch, or null when the item is unstamped
  /// (untraced run, or an item padded with origin = -1).
  static const mps::CausalStamp* causal_stamp_at(const mps::Envelope& env,
                                                 std::size_t i) {
    if (i >= env.causal.size()) return nullptr;
    const mps::CausalStamp& st = env.causal[i];
    return st.origin >= 0 ? &st : nullptr;
  }

  /// Owner side of <request, t, e, k, l> (Lines 17-20): answer F_k(l) from
  /// the slot store or park the requester in Q_{k,l}. A stamped request
  /// continues its flow here ("t" on this rank's track); the answer —
  /// immediate or deferred via the waiter — echoes the root with this
  /// slot's chain depth as the hop.
  void handle_request(Rank src, const RequestXk& req,
                      const mps::CausalStamp* stamp) {
    ++load_.requests_received;
    PAGEN_DCHECK(part_.owner(req.k) == comm_.rank());
    const Count s = slot(req.k, req.l);
    if (causal_ && stamp != nullptr) {
      ob_->trace().flow_step("chain", stamp->root);
    }
    if (slots_.resolved(s)) {
      const ResolvedXk res{req.t, slots_.value(s), req.e};
      if (causal_ && stamp != nullptr) {
        res_buf_.add_stamped(src, res, {stamp->root, src, depth_[s]});
        ++load_.resolved_sent;
      } else {
        send_resolved(src, res);
      }
    } else {
      queue_waiter(s, {req.t, req.e, src, stamp != nullptr ? stamp->root : 0});
    }
  }

  /// Requester side of <resolved, t, e, v>: observe the slot's chain
  /// latency (when its request was stamped) and accept or retry the value.
  /// A stamped answer ends its flow ("f") and stages hop + 1 as the depth of
  /// whatever slot applying it assigns.
  void handle_resolved(const ResolvedXk& res, const mps::CausalStamp* stamp) {
    ++load_.resolved_received;
    const Count s = slot(res.t, res.e);
    if (chain_hist_ != nullptr) {
      if (const std::int64_t* since = sent_at_.find(s)) {
        chain_hist_->observe(static_cast<std::uint64_t>(now_ns() - *since));
        sent_at_.erase(s);
      }
    }
    if (causal_ && stamp != nullptr) {
      ob_->trace().flow_end("chain", stamp->root);
      pending_depth_ = stamp->hop + 1;
    }
    on_resolved(s, res.t, res.e, res.v);
    if (causal_) pending_depth_ = 1;
  }

  const PaConfig& config_;
  const ParallelOptions& options_;
  const partition::Partition& part_;
  mps::Comm& comm_;
  NodeId x_;          ///< slots per node: config.x
  DrawSchema draws_;  ///< the counter-based draws of Lines 3-14
  bool recovering_;   ///< resuming: restore the checkpoint first

  // Observability (all null when observation is off).
  obs::RankObserver* ob_;
  obs::Histogram* chain_hist_;
  obs::Histogram* wait_depth_hist_ = nullptr;
  obs::Gauge* mailbox_gauge_ = nullptr;

  // Causal tracing (ob_ != nullptr && cfg.causal). depth_[s] mirrors the
  // Theorem 3.3 recursion |D_t|: 1 for an independent resolution, parent + 1
  // for a copy — staged through pending_depth_ by whichever path knows the
  // parent (local copy in try_edge, waiter cascade, incoming stamp). A
  // parked candidate keeps its staged depth in depth_ until its commit.
  obs::Histogram* chain_len_hist_ = nullptr;
  bool causal_ = false;
  std::vector<std::uint32_t> depth_;  ///< per-slot chain depth (causal only)
  std::uint32_t pending_depth_ = 1;   ///< depth the next assign records

  genrt::SlotStore<Word> slots_;
  genrt::WaiterQueues waiters_;  ///< Q_{k,l} by slot
  /// Retried slots only; checkpointed with the F slice.
  genrt::SlotMap<RetryState> retries_;
  /// Departure of each outstanding request, by slot (observing only).
  genrt::SlotMap<std::int64_t> sent_at_;
  genrt::EdgeEmitter& emitter_;
  std::vector<mps::Envelope> inbox_;
  mps::SendBuffer<RequestXk> req_buf_;
  mps::SendBuffer<ResolvedXk> res_buf_;
  mps::DoneDetector done_;
  RankLoad load_;
  Count unresolved_ = 0;
  Recovery<Word> recovery_;  ///< constructed last: sees every member set up
};

template <typename Word>
Recovery<Word>::Recovery(MpsRank<Word>& rank)
    : r_(rank),
      owned_hash_(rank.options_.checkpoint_dir.empty()
                      ? 0
                      : owned_nodes_hash(rank.part_, rank.comm_.rank())) {}

template <typename Word>
void Recovery<Word>::maybe_checkpoint(bool force) {
  const ParallelOptions& options = r_.options_;
  if (options.checkpoint_dir.empty()) return;
  if (resolved_since_ckpt_ == 0) return;  // nothing new since last write
  if (!force && resolved_since_ckpt_ < options.checkpoint_every) return;
  const auto sp = obs::span(r_.ob_, "checkpoint");
  RankCheckpoint ck;
  ck.n = r_.config_.n;
  ck.x = r_.config_.x;
  ck.p_bits = std::bit_cast<std::uint64_t>(r_.config_.p);
  ck.seed = r_.config_.seed;
  ck.rank = r_.comm_.rank();
  ck.nranks = r_.comm_.size();
  ck.owned_hash = owned_hash_;
  ck.f = r_.slots_.final_values();
  if (!r_.retries_.empty()) {
    // Dense extras, one per slot, as soon as any slot has retried.
    ck.attempts.assign(ck.f.size(), 0);
    ck.locked_copy.assign(ck.f.size(), 0);
    r_.retries_.for_each([&ck](Count s, const RetryState& r) {
      ck.attempts[s] = r.attempts;
      ck.locked_copy[s] = r.locked_copy ? 1 : 0;
    });
  }
  save_checkpoint(options.checkpoint_dir, ck);
  resolved_since_ckpt_ = 0;
}

template <typename Word>
void Recovery<Word>::restore() {
  const PaConfig& config = r_.config_;
  const std::string& dir = r_.options_.checkpoint_dir;
  if (dir.empty()) return;
  RankCheckpoint ck;
  if (!load_checkpoint(dir, r_.comm_.rank(), ck)) return;
  // The extras are empty until the writer's first retry, else one per slot.
  PAGEN_CHECK_MSG(
      ck.n == config.n && ck.x == config.x &&
          ck.p_bits == std::bit_cast<std::uint64_t>(config.p) &&
          ck.seed == config.seed && ck.nranks == r_.comm_.size() &&
          ck.owned_hash == owned_hash_ && ck.f.size() == r_.slots_.size() &&
          (ck.attempts.empty() || ck.attempts.size() == ck.f.size()) &&
          ck.locked_copy.size() == ck.attempts.size(),
      "checkpoint does not match this run's parameters");
  for (Count s = 0; s < ck.attempts.size(); ++s) {
    if (ck.attempts[s] != 0 || ck.locked_copy[s] != 0) {
      r_.retries_[s] = {ck.attempts[s], ck.locked_copy[s] != 0};
    }
  }
  for (Count s = 0; s < ck.f.size(); ++s) {
    if (ck.f[s] == kNil) continue;
    r_.slots_.set_value(s, ck.f[s]);
    r_.emitter_.emit({r_.part_.node_at(r_.comm_.rank(), s / r_.x_), ck.f[s]});
    ++restored_;
  }
}

class MpsEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const override { return "mps"; }

  [[nodiscard]] EngineCaps capabilities() const override {
    return {.checkpointing = true,
            .fault_tolerance = true,
            .delivery_hook = true,
            .multi_rank = true,
            .max_nodes = genrt::SlotStore<std::uint64_t>::kMaxNodes};
  }

  [[nodiscard]] RankRun run(const PaConfig& config,
                            const ParallelOptions& options,
                            const partition::Partition& part, mps::Comm& comm,
                            genrt::EdgeEmitter& out) const override {
    return genrt::slot_words_fit_u32(config.n)
               ? run_rank<std::uint32_t>(config, options, part, comm, out)
               : run_rank<std::uint64_t>(config, options, part, comm, out);
  }

 private:
  template <typename Word>
  static RankRun run_rank(const PaConfig& config,
                          const ParallelOptions& options,
                          const partition::Partition& part, mps::Comm& comm,
                          genrt::EdgeEmitter& out) {
    MpsRank<Word> rank(config, options, part, comm, out);
    rank.run();
    return {.load = rank.load(), .restored_slots = rank.restored_slots()};
  }
};

}  // namespace

std::unique_ptr<Engine> make_mps_engine() {
  return std::make_unique<MpsEngine>();
}

}  // namespace pagen::core
