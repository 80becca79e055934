// The wire protocol of the mps engine: tags and slot-addressed messages.
//
// Algorithm 3.2 (Algorithm 3.1 at x = 1) is one conversation shape: a rank
// that cannot resolve a local *slot* (an attachment choice F_t(e)) sends a
// <request> to the owner of the node it copies from, and eventually
// receives a <resolved> carrying the value. The request names the
// requester's slot (`t`, `e`) and the owner-side slot it reads (`k`, `l`);
// the rank routes it by `partition.owner(req.k)`. The resolved echoes the
// requester's slot plus the value `v`.
//
// The one wire pair below carries exactly the paper's message contents
// (docs/protocol.md §2) for every x; at x = 1, e = l = 0.
//
// pagen-lint: wire-structs — every struct here travels through
// mps::pack/unpack; keep them trivially copyable (static_asserts below) and
// bump kProtocolWireVersion whenever any of them changes shape.
#pragma once

#include <cstdint>
#include <type_traits>

#include "util/types.h"

namespace pagen::core {

/// Version of the on-the-wire protocol layout below. Checkpoint files and
/// replayable model-checker traces implicitly assume one layout; bump this
/// (and treat mismatching artifacts as stale) whenever a tag is added or
/// removed or a wire struct changes size, field order, or meaning.
inline constexpr std::uint32_t kProtocolWireVersion = 3;

// Tag space of the generation protocol.
inline constexpr int kTagRequest = 1;   ///< <request, ...>
inline constexpr int kTagResolved = 2;  ///< <resolved, ...>
inline constexpr int kTagDone = 3;      ///< rank -> 0 local-completion notice
inline constexpr int kTagStop = 4;      ///< 0 -> all stop broadcast

/// Algorithm 3.2 <request, t, e, k, l>: "tell me F_k(l) for t's e-th edge".
/// Trivially packed at 24 bytes.
struct RequestXk {
  NodeId t = 0;
  NodeId k = 0;
  std::uint32_t e = 0;
  std::uint32_t l = 0;
};

/// Algorithm 3.2 <resolved, t, e, v>; pad keeps the struct trivially packed
/// at 24 bytes.
struct ResolvedXk {
  NodeId t = 0;
  NodeId v = 0;
  std::uint32_t e = 0;
  std::uint32_t pad = 0;
};

static_assert(std::is_trivially_copyable_v<RequestXk> &&
              sizeof(RequestXk) == 24);
static_assert(std::is_trivially_copyable_v<ResolvedXk> &&
              sizeof(ResolvedXk) == 24);

}  // namespace pagen::core
