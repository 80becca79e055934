// Per-destination message aggregation ("message buffering", Section 3.5).
//
// The paper: "If a Processor i has multiple messages destined to the same
// processor ... Processor i can combine them into a single message by
// buffering them ... Further message buffering reduces overhead of packet
// header and thus improves efficiency."  Each rank keeps one buffer per
// destination; items are flushed as a single envelope when the buffer
// reaches capacity or on an explicit flush (the RRP deadlock-avoidance rule
// force-flushes resolved buffers after every received batch).
//
// pagen-lint: hot-path — add() runs once per protocol message.
#pragma once

#include <cstddef>
#include <vector>

#include "mps/comm.h"
#include "util/error.h"
#include "util/types.h"

namespace pagen::mps {

template <typename T>
class SendBuffer {
 public:
  /// @param capacity items per destination before an automatic flush.
  ///   Capacity 1 disables aggregation (every item is its own envelope),
  ///   which the buffering ablation bench uses as its baseline.
  SendBuffer(Comm& comm, int tag, std::size_t capacity)
      : comm_(comm),
        tag_(tag),
        capacity_(capacity),
        buffers_(static_cast<std::size_t>(comm.size())),
        stamps_(static_cast<std::size_t>(comm.size())) {
    PAGEN_CHECK(capacity >= 1);
  }

  /// Queue one item for `dst`; flushes automatically at capacity.
  void add(Rank dst, const T& item) { add_impl(dst, item, nullptr); }

  /// Queue one causally stamped item for `dst`. Stamped and plain adds may
  /// mix on the same destination: once any stamp exists, the stamp vector
  /// is padded with absent stamps (origin < 0) so stamp i always pairs with
  /// payload item i.
  void add_stamped(Rank dst, const T& item, const CausalStamp& stamp) {
    add_impl(dst, item, &stamp);
  }

  /// Send `dst`'s pending items (if any) as one envelope.
  void flush(Rank dst) {
    auto& buf = buffers_[static_cast<std::size_t>(dst)];
    if (buf.empty()) return;
    auto& stamps = stamps_[static_cast<std::size_t>(dst)];
    if (stamps.empty()) {
      comm_.send_items<T>(dst, tag_, buf);
    } else {
      stamps.resize(buf.size());
      comm_.send_items<T>(dst, tag_, buf, std::move(stamps));
      stamps.clear();
    }
    ++flushes_;
    buf.clear();
  }

  /// Flush every destination.
  void flush_all() {
    for (Rank d = 0; d < comm_.size(); ++d) flush(d);
  }

  /// True when no destination has pending items.
  [[nodiscard]] bool empty() const {
    for (const auto& buf : buffers_) {
      if (!buf.empty()) return false;
    }
    return true;
  }

  [[nodiscard]] Count items_added() const { return items_added_; }
  [[nodiscard]] Count flushes() const { return flushes_; }

 private:
  void add_impl(Rank dst, const T& item, const CausalStamp* stamp) {
    auto& buf = buffers_[static_cast<std::size_t>(dst)];
    buf.push_back(item);
    ++items_added_;
    auto& stamps = stamps_[static_cast<std::size_t>(dst)];
    if (stamp != nullptr || !stamps.empty()) {
      stamps.resize(buf.size() - 1);  // pad earlier unstamped items as absent
      stamps.push_back(stamp != nullptr ? *stamp : CausalStamp{});
    }
    if (buf.size() >= capacity_) flush(dst);
  }

  Comm& comm_;
  int tag_;
  std::size_t capacity_;
  std::vector<std::vector<T>> buffers_;
  /// Parallel per-destination causal stamps; empty vector = untraced batch.
  std::vector<std::vector<CausalStamp>> stamps_;
  Count items_added_ = 0;
  Count flushes_ = 0;
};

}  // namespace pagen::mps
