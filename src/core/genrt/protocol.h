// genrt layer 1 — the protocol: tags and slot-addressed messages.
//
// The generation protocol of Algorithm 3.2 (Algorithm 3.1 at x = 1) is one
// conversation shape: a requester that cannot resolve a local *slot* (an
// attachment choice F_t(e)) sends a <request> to the owner of the node it
// copies from, and eventually receives a <resolved> carrying the value.
// Everything else — per-destination batching, the flush rules, termination,
// recovery — is independent of what precisely a slot is. The genrt runtime
// therefore treats messages through the *slot-addressed message concept*:
//
//  * `Request` names the requester's slot (via fields `t` and `e`) and the
//    owner-side slot it reads (via `k` and `l`). The runtime routes it with
//    `partition.owner(req.k)` and re-offers it verbatim when that owner
//    respawns, so `k` is the one field the runtime itself reads.
//  * `Resolved` echoes the requester's slot plus the value `v`. The policy
//    maps it back to a slot index (`resolved_slot`) and decides acceptance
//    (`accept_resolved` filters stale rounds after a crash re-offer).
//
// The one wire pair below carries exactly the paper's message contents
// (docs/protocol.md §2) for every x; at x = 1, e = l = round = 0. The
// runtime never inspects the fields beyond `t` and `k`.
//
// pagen-lint: wire-structs — every struct here travels through
// mps::pack/unpack; keep them trivially copyable (static_asserts below) and
// bump kProtocolWireVersion whenever any of them changes shape.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "util/types.h"

namespace pagen::core {

/// Version of the on-the-wire protocol layout below. Checkpoint files and
/// replayable model-checker traces implicitly assume one layout; bump this
/// (and treat mismatching artifacts as stale) whenever a tag is added or a
/// wire struct changes size, field order, or meaning.
inline constexpr std::uint32_t kProtocolWireVersion = 2;

// Tag space of the generation protocol (shared by every genrt policy).
inline constexpr int kTagRequest = 1;   ///< <request, ...>
inline constexpr int kTagResolved = 2;  ///< <resolved, ...>
inline constexpr int kTagDone = 3;      ///< rank -> 0 local-completion notice
inline constexpr int kTagStop = 4;      ///< 0 -> all stop broadcast
inline constexpr int kTagRecover = 5;   ///< restarted incarnation -> all:
                                        ///< "my queues died; re-offer what
                                        ///< you still wait on" (robustness)

/// Algorithm 3.2 <request, t, e, k, l>: "tell me F_k(l) for t's e-th edge".
/// `round` echoes the requester's per-slot attempt counter at issue time;
/// the owner copies it into the response so the requester can discard stale
/// answers after a crash recovery re-offers requests (the answer value is a
/// pure function of (t, e, round), so duplicates are otherwise ambiguous —
/// docs/robustness.md). pad keeps the struct trivially packed at 32 bytes.
struct RequestXk {
  NodeId t = 0;
  NodeId k = 0;
  std::uint32_t e = 0;
  std::uint32_t l = 0;
  std::uint32_t round = 0;
  std::uint32_t pad = 0;
};

/// Algorithm 3.2 <resolved, t, e, v>. `round` echoes the request's (see
/// RequestXk); the struct stays trivially packed at 24 bytes.
struct ResolvedXk {
  NodeId t = 0;
  NodeId v = 0;
  std::uint32_t e = 0;
  std::uint32_t round = 0;
};

namespace genrt {

/// Wire requirements the runtime places on a policy's message pair: both
/// trivially copyable (they travel through mps::pack/unpack) and the request
/// naming the owner-side node `k` the runtime routes and re-offers by, plus
/// the requesting node `t` from which the causal tracer derives the global
/// root-slot id it stamps onto outgoing requests.
template <typename Req, typename Res>
concept SlotMessages =
    std::is_trivially_copyable_v<Req> && std::is_trivially_copyable_v<Res> &&
    requires(const Req& req) {
      { req.k } -> std::convertible_to<NodeId>;
      { req.t } -> std::convertible_to<NodeId>;
    };

static_assert(SlotMessages<RequestXk, ResolvedXk>);

}  // namespace genrt
}  // namespace pagen::core
