// Message envelope and POD packing helpers for the mps runtime.
//
// The runtime moves opaque byte payloads between ranks; algorithm-level
// message structs (request/resolved, Section 3.2–3.3 of the paper) are
// trivially-copyable PODs packed contiguously into one envelope per
// (destination, tag) batch — this is the "message buffering" the paper's
// Section 3.5 calls out as essential at scale.
//
// pagen-lint: hot-path — pack/unpack run once per item sent or received.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace pagen::mps {

/// Compact causal context for one packed item inside an envelope. When
/// causal tracing is enabled (obs::Config::causal) the sender attaches one
/// stamp per packed item; the receiver uses it to continue the dependency
/// chain (`F_t -> F_k -> ...`, Section 3.3) across ranks and to bind
/// Perfetto flow events to the originating request. `origin < 0` marks an
/// absent stamp, so padded slots in a mixed batch are ignored downstream.
struct CausalStamp {
  std::uint64_t root = 0;  ///< global slot id of the chain's root request
  Rank origin = -1;        ///< rank that issued the root request
  std::uint32_t hop = 0;   ///< chain depth carried by this message
};

/// One delivered message batch. `payload` holds `payload.size() / sizeof(T)`
/// packed items of the tag's element type T.
struct Envelope {
  Rank src = -1;
  int tag = 0;
  std::vector<std::byte> payload;

  /// Per-(src, dst, tag) send sequence number. Stamped by the reliability
  /// layer (mps/reliable.h) when it is enabled — receiver-side dedup and
  /// reordering key on it — and otherwise by the invariant checker when
  /// PAGEN_CHECK_INVARIANTS is on (0 in plain Release builds). The checker
  /// asserts these arrive in order — the non-overtaking delivery guarantee
  /// (mps/invariant.h). Not part of any user protocol.
  std::uint64_t seq = 0;

  /// One causal stamp per packed payload item, in item order. Empty unless
  /// the sender runs with causal tracing on — an empty vector allocates
  /// nothing and adds zero wire bytes, so the disabled path stays free.
  /// Stamps travel beside the payload, never inside it: payload byte counts
  /// (CommStats::bytes_sent) are identical with tracing on or off.
  std::vector<CausalStamp> causal;
};

/// Reserved tag broadcast by the engine when a rank dies: Comm::poll and
/// poll_wait translate it into a WorldAborted exception so peers blocked on
/// data traffic unwind instead of deadlocking. Never use for user traffic.
inline constexpr int kAbortTag = -559038737;  // 0xDEADBEEF as signed

/// Reserved tag of the reliability layer's cumulative acknowledgements
/// (mps/reliable.h). Consumed inside Comm::poll/poll_wait, never surfaced
/// to user code, and exempt from fault injection and the invariant ledger.
inline constexpr int kAckTag = -889275714;  // 0xCAFEBABE as signed

/// Append the bytes of `items` to `out`.
template <typename T>
void pack(std::vector<std::byte>& out, std::span<const T> items) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t old = out.size();
  out.resize(old + items.size_bytes());
  if (!items.empty()) {
    std::memcpy(out.data() + old, items.data(), items.size_bytes());
  }
}

/// Append one item.
template <typename T>
void pack_one(std::vector<std::byte>& out, const T& item) {
  pack(out, std::span<const T>(&item, 1));
}

/// Decode a payload as packed items of T. The payload size must be an exact
/// multiple of sizeof(T). Returns a by-value vector: payload alignment is not
/// guaranteed to satisfy alignof(T), so items are memcpy'd out.
template <typename T>
[[nodiscard]] std::vector<T> unpack(std::span<const std::byte> payload) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAGEN_CHECK_MSG(payload.size() % sizeof(T) == 0,
                  "payload size " << payload.size()
                                  << " not a multiple of element size "
                                  << sizeof(T));
  std::vector<T> items(payload.size() / sizeof(T));
  if (!items.empty()) {
    std::memcpy(items.data(), payload.data(), payload.size());
  }
  return items;
}

/// Visit packed items in place without copying the whole batch.
template <typename T, typename Fn>
void for_each_packed(std::span<const std::byte> payload, Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAGEN_CHECK(payload.size() % sizeof(T) == 0);
  const std::size_t n = payload.size() / sizeof(T);
  for (std::size_t i = 0; i < n; ++i) {
    T item;
    std::memcpy(&item, payload.data() + i * sizeof(T), sizeof(T));
    fn(item);
  }
}

}  // namespace pagen::mps
