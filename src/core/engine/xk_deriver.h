// XkDeriver: the communication-free engine's x > 1 re-derivation
// (comm_free_engine.cpp), one whole row F_u(0..x-1) at a time.
//
// pagen-lint: hot-path — derivation runs once per edge; flat tables only.
//
// The row table is the engine's per-rank state: n * x entries, each wide
// enough for one node id. derive_rank picks the entry type once, from n
// (row_entries_fit_u32): u32 whenever every node id and the nil sentinel
// fit, which every graph of the paper does (n <= 10^9 < 2^32), and u64
// otherwise. Both widths derive the same rows in the same order, so the
// output does not depend on the choice.
//
// The epoch exchange (comm_free_engine.cpp) reads complete rows out of one
// rank's table and installs them into the others' as raw entries: x
// entries of sizeof(Entry) bytes per row, the table's own layout.
//
// Included by comm_free_engine.cpp and by its tests only. The anonymous
// namespace keeps each instantiation local to its translation unit, as
// mps_engine.cpp keeps the mps rank: with external linkage GCC stopped
// inlining a hot template's loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "store/ext_array.h"
#include "util/error.h"
#include "util/types.h"

namespace pagen::core {
namespace {

/// Whether the row table of an n-node run stores u32 entries: node ids are
/// below n, so for n <= 2^32 - 1 every id fits and UINT32_MAX stays free
/// for the nil sentinel.
[[nodiscard]] constexpr bool row_entries_fit_u32(NodeId n) {
  return n <= std::numeric_limits<std::uint32_t>::max();
}

/// x > 1 re-derivation: whole rows F_u(0..x-1) in the sequential order of
/// baseline::copy_model_general, kept in one node-indexed table whose entry
/// u * x + e holds F_u(e) (nil while unresolved). Slots fill in order, so a
/// row is complete exactly when its last slot is set.
///
/// A row suspends when its copy path needs a row not derived yet, and its
/// progress (slot, attempt, copy latch) waits in its frame on an explicit
/// stack. Dependencies are strictly smaller (pick_k range [x, u-1]), so the
/// stack never cycles, and a dependency is never on it: every row off the
/// stack is either complete or untouched.
///
/// The table holds `Entry`s, u32 or u64, with the all-ones value as nil;
/// get and set translate it to and from kNil, so the derivation itself only
/// sees NodeIds. It is a plain vector (sizeof(Entry) * n * x bytes per
/// rank), or, with a spill path (the state_spill capability), a
/// store::ExternalArray of the same layout whose page cache holds
/// spill_budget_bytes; never-written pages read as nil, so the backing file
/// stays sparse. The derivation order, and therefore the output, is the
/// same either way.
template <typename Entry>
class XkDeriver {
  static_assert(std::is_same_v<Entry, std::uint32_t> ||
                    std::is_same_v<Entry, std::uint64_t>,
                "row entries are u32 or u64");

 public:
  XkDeriver(const PaConfig& config, const std::string& spill_path,
            std::uint64_t spill_budget_bytes)
      : draws_(config), x_(config.x) {
    PAGEN_CHECK_MSG(config.n - 1 < kNilEntry,
                    "node ids of n = " << config.n << " do not fit "
                                       << sizeof(Entry) << "-byte entries");
    if (spill_path.empty()) {
      ram_.assign(static_cast<std::size_t>(config.n * x_), kNilEntry);
    } else {
      spill_.emplace(spill_path, config.n * x_, kNilEntry, spill_budget_bytes);
    }
    // Bootstrap convention: F_x(e) = e (DESIGN.md §5).
    for (NodeId e = 0; e < x_; ++e) set(x_ * x_ + e, e);
  }

  /// Derives the row of node t (t >= x), and every row it copies from,
  /// unless it is already complete.
  void resolve(NodeId t) {
    if (complete(t)) return;
    stack_.clear();
    stack_.push_back({.u = t});
    while (!stack_.empty()) {
      const NodeId dep = advance(stack_.back());
      if (dep == kNil) {
        stack_.pop_back();
        ++rows_derived_;
      } else {
        stack_.push_back({.u = dep});
      }
    }
  }

  /// F_t(e) of a resolved row.
  [[nodiscard]] NodeId at(NodeId t, NodeId e) { return get(t * x_ + e); }

  /// Appends complete row t to `out` as its x raw entries. In-RAM tables
  /// only: a spilled table never takes part in an exchange.
  void append_row(NodeId t, std::vector<std::byte>& out) const {
    PAGEN_CHECK(!spill_);
    const auto* row = reinterpret_cast<const std::byte*>(&ram_[t * x_]);
    out.insert(out.end(), row, row + x_ * sizeof(Entry));
  }

  /// Installs row t from x raw entries that another deriver completed
  /// (append_row's form). A row this deriver completed itself must be
  /// equal; a mismatch is a CheckError.
  void install_row(NodeId t, const std::byte* in) {
    PAGEN_CHECK(!spill_);
    Entry* row = &ram_[t * x_];
    const std::size_t bytes = x_ * sizeof(Entry);
    if (row[x_ - 1] == kNilEntry) {  // off the stack: untouched
      std::memcpy(row, in, bytes);
    } else {
      PAGEN_CHECK_MSG(std::memcmp(row, in, bytes) == 0,
                      "received row " << t << " differs from the local one");
    }
  }

  /// Duplicate-retries performed by this deriver (own + re-derived nodes).
  [[nodiscard]] Count retries() const { return retries_; }

  /// Rows this deriver completed itself, excluding the bootstrap row and
  /// installed ones.
  [[nodiscard]] Count rows_derived() const { return rows_derived_; }

 private:
  static constexpr Entry kNilEntry = std::numeric_limits<Entry>::max();

  struct Frame {
    NodeId u;
    NodeId e = 0;               ///< first unresolved slot of u's row
    std::uint64_t attempt = 0;  ///< in-progress attempt for slot e
    bool locked_copy = false;   ///< Lines 27-29 latch for slot e
  };

  [[nodiscard]] NodeId get(std::uint64_t i) {
    const Entry v = spill_ ? spill_->get(i) : ram_[i];
    return v == kNilEntry ? kNil : NodeId{v};
  }

  /// kNil narrows to kNilEntry; every node id fits (constructor check).
  void set(std::uint64_t i, NodeId v) {
    const auto entry = static_cast<Entry>(v);
    if (spill_) {
      spill_->set(i, entry);
    } else {
      ram_[i] = entry;
    }
  }

  [[nodiscard]] bool complete(NodeId u) { return get(u * x_ + x_ - 1) != kNil; }

  /// Resolve f.u's remaining slots exactly as copy_model_general would.
  /// Returns kNil when the row completes, or the dependency node the copy
  /// path is blocked on. The attempt counter is NOT advanced on suspension,
  /// so resuming re-derives the identical (k, l) pair — draws are pure in
  /// (seed, u, e, attempt).
  NodeId advance(Frame& f) {
    const std::uint64_t row = f.u * x_;
    const DrawSchema::Row draws = draws_.row(f.u);
    for (; f.e < x_; ++f.e, f.attempt = 0, f.locked_copy = false) {
      const DrawSchema::Slot slot = draws.slot(f.e);
      // Slots past e are still nil, so only the resolved prefix can clash.
      const auto is_dup = [&](NodeId v) {
        for (NodeId j = 0; j < f.e; ++j) {
          if (get(row + j) == v) return true;
        }
        return false;
      };
      for (;; ++f.attempt, ++retries_) {
        PAGEN_CHECK_MSG(f.attempt < kMaxAttempts,
                        "duplicate-retry cap exceeded at node " << f.u);
        const NodeId k = draws_.pick_k(slot, f.attempt);
        if (!f.locked_copy && draws_.pick_direct(slot, f.attempt)) {
          if (!is_dup(k)) {
            set(row + f.e, k);
            break;
          }
        } else {
          if (!complete(k)) return k;
          const NodeId v = get(k * x_ + draws_.pick_l(slot, f.attempt));
          if (!is_dup(v)) {
            set(row + f.e, v);
            break;
          }
          f.locked_copy = true;
        }
      }
    }
    return kNil;
  }

  DrawSchema draws_;
  NodeId x_;
  std::vector<Entry> ram_;
  std::optional<store::ExternalArray<Entry>> spill_;
  std::vector<Frame> stack_;
  Count retries_ = 0;
  Count rows_derived_ = 0;
};

}  // namespace
}  // namespace pagen::core
