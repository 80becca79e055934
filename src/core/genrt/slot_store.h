// The slot store: an mps rank's attachment state (core/engine/mps_engine.cpp)
// in flat tables.
//
// pagen-lint: hot-path — touched once per message; flat tables only.
//
// A *slot* is one attachment choice this rank owns: `local_index(t) * x + e`
// (for x = 1 the local node index itself). Slot indices are dense and
// bounded by `part_size * x`, so what every slot has lives in flat vectors
// indexed by slot, and what few slots have lives in flat tables keyed by
// slot. A rank pays 8 bytes per slot at n <= 2^31 (12 beyond):
//
//  * SlotStore — the F word per slot: a final value, open while
//    unresolved, or a *parked* candidate under the word's top bit. MpsRank
//    commits a node's slots in order, so a candidate that is known before
//    the row's earlier slots are final waits in the slot's own word: it is
//    never resolved(), never served, and checkpoints as kNil. The word is
//    u32 while n <= 2^31 (slot_words_fit_u32) and u64 beyond;
//  * WaiterQueues — the queues Q_{k,l} of parties waiting for a slot: one
//    u32 per slot into one pooled, free-listed node array;
//  * SlotMap — a flat open-addressing table for the state only some slots
//    carry: the retry state of slots that drew a duplicate, and the
//    departure stamps of outstanding requests behind pa.chain_latency_ns.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace pagen::core::genrt {

/// Whether an n-node run keeps u32 F words: every value is a node id below
/// n - 1, so for n <= 2^31 values stay below the parked bit 31, and a
/// parked word never reaches the all-ones open word.
[[nodiscard]] constexpr bool slot_words_fit_u32(NodeId n) {
  return n <= (NodeId{1} << 31);
}

/// The F word per slot, `Word` = u32 or u64 (picked once from n).
template <typename Word>
class SlotStore {
  static_assert(std::is_same_v<Word, std::uint32_t> ||
                    std::is_same_v<Word, std::uint64_t>,
                "F words are u32 or u64");

 public:
  /// The word of an open slot.
  static constexpr Word kOpen = std::numeric_limits<Word>::max();
  /// The parked flag. A value v < t <= n - 1 never sets it, and a parked
  /// word v | kParked never equals kOpen.
  static constexpr Word kParked = Word{1} << (8 * sizeof(Word) - 1);
  /// The largest n whose values fit below kParked.
  static constexpr NodeId kMaxNodes = kParked;

  /// @param slots number of local slots (part_size * x).
  explicit SlotStore(Count slots) : words_(slots, kOpen) {}

  [[nodiscard]] Count size() const { return words_.size(); }

  /// True once the slot's value is final.
  [[nodiscard]] bool resolved(Count slot) const {
    return words_[slot] < kParked;
  }

  /// The final value of a resolved slot.
  [[nodiscard]] NodeId value(Count slot) const {
    PAGEN_DCHECK(resolved(slot));
    return words_[slot];
  }

  void set_value(Count slot, NodeId v) {
    PAGEN_DCHECK(v < kParked);
    words_[slot] = static_cast<Word>(v);
  }

  /// True while the slot holds a candidate that waits for the row's earlier
  /// slots.
  [[nodiscard]] bool parked(Count slot) const {
    return words_[slot] != kOpen && words_[slot] >= kParked;
  }

  void park(Count slot, NodeId v) {
    PAGEN_DCHECK(v < kParked && words_[slot] == kOpen);
    words_[slot] = static_cast<Word>(v) | kParked;
  }

  /// Take the parked candidate back out; the slot is open again.
  NodeId unpark(Count slot) {
    PAGEN_DCHECK(parked(slot));
    const NodeId v = words_[slot] & ~kParked;
    words_[slot] = kOpen;
    return v;
  }

  /// The checkpointed F slice: every final value, and kNil for open and
  /// parked slots (a replay draws a parked candidate again).
  [[nodiscard]] std::vector<NodeId> final_values() const {
    std::vector<NodeId> f(words_.size());
    for (Count s = 0; s < words_.size(); ++s) {
      f[s] = words_[s] < kParked ? NodeId{words_[s]} : kNil;
    }
    return f;
  }

 private:
  std::vector<Word> words_;  ///< F by slot
};

/// One party parked on a slot until it resolves (Q_{k,l}): a remote
/// requester (owner != self) or a local slot (t, e) that copies the awaited
/// one.
struct Waiter {
  NodeId t = 0;
  std::uint32_t e = 0;
  Rank owner = 0;
  /// Causal root-slot id of a parked remote request (0 = untraced: node 0
  /// never requests, so 0 is never a real root).
  std::uint64_t root = 0;
};

/// The waiter queues Q_{k,l} of every slot. A slot holds the u32 index of
/// its queue's last node, whose `next` closes the ring at the first node, so
/// a push appends in O(1) and a drain answers in FIFO order. Nodes live in
/// one array; drained nodes go to a free list that later pushes reuse, so
/// the array holds the most waiters that were ever queued at once.
class WaiterQueues {
 public:
  explicit WaiterQueues(Count slots) : tails_(slots, kNone) {}

  /// Append `w` to the slot's queue; returns the queue's length after it.
  std::uint32_t push(Count slot, const Waiter& w) {
    std::uint32_t i = free_;
    if (i != kNone) {
      free_ = nodes_[i].next;
    } else {
      PAGEN_CHECK_MSG(nodes_.size() < kNone, "more than 2^32 - 1 waiters");
      i = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& node = nodes_[i];
    node.w = w;
    const std::uint32_t tail = tails_[slot];
    if (tail == kNone) {
      node.next = i;
      node.depth = 1;
    } else {
      node.next = nodes_[tail].next;
      node.depth = nodes_[tail].depth + 1;
      nodes_[tail].next = i;
    }
    tails_[slot] = i;
    return node.depth;
  }

  /// Empty the slot's queue, handing each waiter to `visit` in FIFO order.
  /// `visit` may push onto other slots: it gets a copy, and each node is
  /// freed before its visit, so those pushes reuse it.
  template <typename Visit>
  void drain(Count slot, Visit&& visit) {
    const std::uint32_t tail = tails_[slot];
    if (tail == kNone) return;
    tails_[slot] = kNone;
    std::uint32_t i = nodes_[tail].next;
    for (;;) {
      const Node node = nodes_[i];
      nodes_[i].next = free_;
      free_ = i;
      visit(node.w);
      if (i == tail) return;
      i = node.next;
    }
  }

  /// Nodes in the pool, free or queued.
  [[nodiscard]] std::size_t pool_size() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    Waiter w;
    std::uint32_t next = kNone;  ///< queue ring, or the free list
    std::uint32_t depth = 0;     ///< position in its queue, from 1
  };

  std::vector<std::uint32_t> tails_;  ///< by slot: last node, or kNone
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNone;
};

/// A flat open-addressing table from slot to `V`, for state that only some
/// slots carry: linear probing over a power-of-two array kept at most half
/// full, and erase by backward shift, so no probe ever passes a tombstone.
/// A table that never held an entry allocates nothing.
template <typename V>
class SlotMap {
 public:
  /// Entries the table allocates at its first insert.
  static constexpr std::size_t kFirstCapacity = 16;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  /// The slot's value, or null when the table has none.
  [[nodiscard]] const V* find(Count slot) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(slot);; i = (i + 1) & mask_) {
      const Entry& entry = entries_[i];
      if (entry.slot == slot) return &entry.value;
      if (entry.slot == kEmpty) return nullptr;
    }
  }

  /// The slot's value, value-initialized first when the table has none.
  V& operator[](Count slot) {
    PAGEN_DCHECK(slot != kEmpty);
    if ((size_ + 1) * 2 > entries_.size()) grow();
    std::size_t i = home(slot);
    for (; entries_[i].slot != kEmpty; i = (i + 1) & mask_) {
      if (entries_[i].slot == slot) return entries_[i].value;
    }
    ++size_;
    entries_[i] = {slot, V{}};
    return entries_[i].value;
  }

  /// Remove the slot's value; false when the table had none.
  bool erase(Count slot) {
    if (size_ == 0) return false;
    std::size_t hole = home(slot);
    while (entries_[hole].slot != slot) {
      if (entries_[hole].slot == kEmpty) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically after the hole.
    for (std::size_t i = (hole + 1) & mask_; entries_[i].slot != kEmpty;
         i = (i + 1) & mask_) {
      if (((i - home(entries_[i].slot)) & mask_) >= ((i - hole) & mask_)) {
        entries_[hole] = entries_[i];
        hole = i;
      }
    }
    entries_[hole].slot = kEmpty;
    --size_;
    return true;
  }

  /// Call fn(slot, value) for every entry, in no particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : entries_) {
      if (entry.slot != kEmpty) fn(entry.slot, entry.value);
    }
  }

 private:
  static constexpr Count kEmpty = std::numeric_limits<Count>::max();

  struct Entry {
    Count slot = kEmpty;
    V value{};
  };

  /// Fibonacci hashing: the top bits of slot * 2^64 / phi.
  [[nodiscard]] std::size_t home(Count slot) const {
    return static_cast<std::size_t>((slot * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Entry> old;
    old.swap(entries_);
    const std::size_t capacity =
        old.empty() ? kFirstCapacity : old.size() * 2;
    entries_.assign(capacity, Entry{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Entry& entry : old) {
      if (entry.slot == kEmpty) continue;
      std::size_t i = home(entry.slot);
      while (entries_[i].slot != kEmpty) i = (i + 1) & mask_;
      entries_[i] = entry;
    }
  }

  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace pagen::core::genrt
