// genrt layer 4 — the recovery adapter: every crash-tolerance concern of a
// generator rank (docs/robustness.md §3), funneled through one code path:
//
//  * restore_and_announce() — a respawned incarnation restores the durable
//    F slice (plus policy extras: attempt counters, copy-path latches),
//    re-emits the restored edges (the sink contract is at-least-once under
//    crashes), pre-counts the replay's open slots up front (answers to the
//    previous incarnation's requests may arrive before the replay loop
//    reaches their node, and the resolve path must always see a consistent
//    count), and broadcasts kTagRecover so peers re-offer whatever they
//    still wait on — our queues died with us.
//  * on_peer_recover() — the other side: every outstanding request owned by
//    the respawned peer is offered again from the flat slot store, and the
//    termination detector repairs whatever done/stop state died with it.
//    In-flight answers then arrive as duplicates and are absorbed by the
//    tolerant resolve path (round echoes disambiguate retried slots).
//  * note_resolution() / maybe_checkpoint() — the checkpoint write cadence.
//
// `D` is the genrt::Driver instantiation; the adapter reaches policy hooks
// (fill_checkpoint / restore_checkpoint_extras / node_has_slots) through it.
#pragma once

#include <bit>
#include <cstdint>

#include "core/checkpoint.h"
#include "core/genrt/protocol.h"
#include "core/options.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/types.h"

namespace pagen::core::genrt {

/// FNV-1a over rank `rank`'s owned nodes in partition-local order — the
/// order of its checkpoint slots. Two partitions fingerprint alike only when
/// they hand the rank the same nodes in the same order.
inline std::uint64_t owned_nodes_hash(const partition::Partition& part,
                                      Rank rank) {
  Fnv1a h;
  const Count size = part.part_size(rank);
  for (Count i = 0; i < size; ++i) h.word(part.node_at(rank, i));
  return h.digest();
}

template <typename D>
class Recovery {
 public:
  /// Constructed by the driver after its config, options, partition and
  /// Comm; fingerprints the rank's nodes only when checkpointing is on.
  explicit Recovery(D& d)
      : d_(d),
        owned_hash_(d.options().checkpoint_dir.empty()
                        ? 0
                        : owned_nodes_hash(d.part(), d.rank())) {}

  /// Respawned-incarnation bring-up (replaces the start barrier: that
  /// rendezvous already completed in a previous life — sends, where crashes
  /// fire, happen only after it — so joining it again would desynchronize
  /// the collective generation).
  void restore_and_announce() {
    restore_from_checkpoint();
    precount_open_slots();
    for (Rank r = 0; r < d_.comm().size(); ++r) {
      if (r != d_.rank()) {
        d_.comm().template send_item<char>(r, kTagRecover, 0);
      }
    }
  }

  /// Fresh-run resume bring-up (ParallelOptions::resume, the service retry
  /// path): every rank restores its own checkpoint after the common start
  /// barrier, so — unlike a mid-run respawn — no peer holds in-flight state
  /// for us and no kTagRecover re-offer broadcast is needed (one would
  /// produce duplicate answers that only the crash-tolerant resolve path
  /// absorbs). Missing checkpoints leave the rank a plain cold start.
  void restore_quietly() {
    restore_from_checkpoint();
    precount_open_slots();
  }

  /// Slots this incarnation restored from its checkpoint (0 on cold start).
  [[nodiscard]] Count restored() const { return restored_; }

  /// A peer respawned: re-offer every request we still wait on that it owns
  /// (its waiter queues died with it), then let the termination detector
  /// repair its lost done/stop state.
  void on_peer_recover(Rank src) {
    d_.slots().for_each_outstanding(
        [&](Count, const typename D::Request& req) {
          if (d_.part().owner(req.k) == src) d_.offer_request(src, req);
        });
    d_.flush_requests_to(src);
    d_.done().on_peer_recover(src);
    if (d_.obs() != nullptr) d_.obs()->trace().instant("peer_recover");
  }

  /// One slot resolved since the last checkpoint write.
  void note_resolution() { ++resolved_since_ckpt_; }

  void maybe_checkpoint(bool force) {
    if (d_.options().checkpoint_dir.empty()) return;
    if (resolved_since_ckpt_ == 0) return;  // nothing new since last write
    if (!force && resolved_since_ckpt_ < d_.options().checkpoint_every) return;
    const auto sp = obs::span(d_.obs(), "checkpoint");
    RankCheckpoint ck;
    ck.n = d_.config().n;
    ck.x = d_.config().x;
    ck.p_bits = std::bit_cast<std::uint64_t>(d_.config().p);
    ck.seed = d_.config().seed;
    ck.rank = d_.rank();
    ck.nranks = d_.comm().size();
    ck.owned_hash = owned_hash_;
    ck.f = d_.slots().values();
    d_.policy().fill_checkpoint(ck);
    save_checkpoint(d_.options().checkpoint_dir, ck);
    resolved_since_ckpt_ = 0;
  }

 private:
  /// Restore the durable slice of a previous incarnation, re-emitting its
  /// edges. Slots left kNil are replayed by the generate phase exactly as
  /// in the first life (re-drawing identically from any restored attempt).
  void restore_from_checkpoint() {
    if (d_.options().checkpoint_dir.empty()) return;
    RankCheckpoint ck;
    if (!load_checkpoint(d_.options().checkpoint_dir, d_.rank(), ck)) return;
    PAGEN_CHECK_MSG(
        ck.n == d_.config().n && ck.x == d_.config().x &&
            ck.p_bits == std::bit_cast<std::uint64_t>(d_.config().p) &&
            ck.seed == d_.config().seed && ck.nranks == d_.comm().size() &&
            ck.owned_hash == owned_hash_ && ck.f.size() == d_.slots().size(),
        "checkpoint does not match this run's parameters");
    d_.policy().restore_checkpoint_extras(ck);
    const Count spn = d_.slots_per_node();
    for (Count s = 0; s < ck.f.size(); ++s) {
      if (ck.f[s] == kNil) continue;
      d_.slots().set_value(s, ck.f[s]);
      d_.emit_edge({d_.part().node_at(d_.rank(), s / spn), ck.f[s]});
      ++restored_;
    }
  }

  /// Count the replay's open slots up front so the drain phase's unresolved
  /// count is consistent before the replay loop runs.
  void precount_open_slots() {
    const Count my_nodes = d_.part().part_size(d_.rank());
    const Count spn = d_.slots_per_node();
    for (Count idx = 0; idx < my_nodes; ++idx) {
      const NodeId t = d_.part().node_at(d_.rank(), idx);
      if (!d_.policy().node_has_slots(t)) continue;  // seed/clique node
      for (Count e = 0; e < spn; ++e) {
        if (!d_.slots().resolved(idx * spn + e)) d_.add_open_slot();
      }
    }
  }

  D& d_;
  std::uint64_t owned_hash_;  ///< owned_nodes_hash, 0 without checkpointing
  Count resolved_since_ckpt_ = 0;
  Count restored_ = 0;
};

}  // namespace pagen::core::genrt
