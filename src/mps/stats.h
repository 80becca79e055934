// Per-rank communication statistics.
//
// The paper measures load as "number of nodes per processor, number of
// outgoing messages, and number of incoming messages" (Section 3.5/4.6).
// The runtime tallies envelopes/bytes on both the send path
// (Comm::send_bytes) and the receive path (Comm::poll/poll_wait) — after a
// quiesced run the world-wide sums of the two sides agree exactly, which
// the engine tests assert. The per-destination and per-tag breakdowns feed
// the obs metrics exporter; algorithm-level request/resolved counts are
// tallied by the generator itself (core/load_stats.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/types.h"

namespace pagen::mps {

struct CommStats {
  Count envelopes_sent = 0;
  Count envelopes_received = 0;
  Count bytes_sent = 0;
  Count bytes_received = 0;
  Count collectives = 0;
  /// Bytes this rank deposited into collectives (the allgather blobs).
  Count collective_bytes = 0;

  // Reliability / fault-injection counters (mps/reliable.h, mps/fault.h).
  // Kept separate from the envelope volumes above: retransmissions, acks
  // and injected copies are transport artifacts, not algorithm traffic, so
  // folding them in would inflate the paper's per-processor message-load
  // figures. All zero in fault-free best-effort runs.
  Count retransmits = 0;         ///< physical re-sends of unacked envelopes
  Count acks_sent = 0;           ///< cumulative-ack envelopes emitted
  Count acks_received = 0;       ///< cumulative-ack envelopes consumed
  Count duplicates_dropped = 0;  ///< receiver-side dedup drops
  Count injected_drops = 0;      ///< envelopes the fault injector discarded
  Count injected_dups = 0;       ///< extra copies the fault injector created

  /// Causal stamps attached on the send path (obs causal tracing). Zero in
  /// untraced runs — the zero-cost-disabled bench asserts exactly that.
  /// Kept out of bytes_sent: stamps are observer metadata, not traffic.
  Count causal_stamps = 0;

  /// Envelopes sent per destination rank (index = destination). Sized by
  /// Comm to the world size; default-empty when hand-constructed.
  std::vector<Count> envelopes_to;

  /// Envelopes sent / received per message tag (protocol tags from
  /// core/genrt/protocol.h, plus any user tags).
  std::map<int, Count> sent_by_tag;
  std::map<int, Count> received_by_tag;

  /// Cross-rank reduction: every field sums (all are volumes, no
  /// high-water marks here); `envelopes_to` widens to the longer vector.
  CommStats& operator+=(const CommStats& o) {
    envelopes_sent += o.envelopes_sent;
    envelopes_received += o.envelopes_received;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    collectives += o.collectives;
    collective_bytes += o.collective_bytes;
    retransmits += o.retransmits;
    acks_sent += o.acks_sent;
    acks_received += o.acks_received;
    duplicates_dropped += o.duplicates_dropped;
    injected_drops += o.injected_drops;
    injected_dups += o.injected_dups;
    causal_stamps += o.causal_stamps;
    if (envelopes_to.size() < o.envelopes_to.size()) {
      envelopes_to.resize(o.envelopes_to.size(), 0);
    }
    for (std::size_t i = 0; i < o.envelopes_to.size(); ++i) {
      envelopes_to[i] += o.envelopes_to[i];
    }
    for (const auto& [tag, n] : o.sent_by_tag) sent_by_tag[tag] += n;
    for (const auto& [tag, n] : o.received_by_tag) received_by_tag[tag] += n;
    return *this;
  }
};

/// Render a rank index as a fixed-width metric-name suffix ("0007") so the
/// exporter's lexicographic name order is also numeric order.
[[nodiscard]] inline std::string metric_rank_suffix(std::size_t r) {
  std::string s = std::to_string(r);
  return s.size() >= 4 ? s : std::string(4 - s.size(), '0') + s;
}

/// Fold one rank's comm counters into its metrics registry under "mps.*".
inline void record_metrics(obs::MetricsRegistry& reg, const CommStats& s) {
  reg.counter("mps.envelopes_sent").add(s.envelopes_sent);
  reg.counter("mps.envelopes_received").add(s.envelopes_received);
  reg.counter("mps.bytes_sent").add(s.bytes_sent);
  reg.counter("mps.bytes_received").add(s.bytes_received);
  reg.counter("mps.collectives").add(s.collectives);
  reg.counter("mps.collective_bytes").add(s.collective_bytes);
  // Reliability counters appear only when the layer did something, so
  // fault-free metric exports are byte-identical to the pre-fault runtime.
  if (s.retransmits != 0) reg.counter("mps.retransmits").add(s.retransmits);
  if (s.acks_sent != 0) reg.counter("mps.acks_sent").add(s.acks_sent);
  if (s.acks_received != 0) {
    reg.counter("mps.acks_received").add(s.acks_received);
  }
  if (s.duplicates_dropped != 0) {
    reg.counter("mps.duplicates_dropped").add(s.duplicates_dropped);
  }
  if (s.injected_drops != 0) {
    reg.counter("mps.injected_drops").add(s.injected_drops);
  }
  if (s.injected_dups != 0) {
    reg.counter("mps.injected_dups").add(s.injected_dups);
  }
  if (s.causal_stamps != 0) {
    reg.counter("mps.causal_stamps").add(s.causal_stamps);
  }
  for (std::size_t dst = 0; dst < s.envelopes_to.size(); ++dst) {
    if (s.envelopes_to[dst] == 0) continue;
    reg.counter("mps.envelopes_to." + metric_rank_suffix(dst))
        .add(s.envelopes_to[dst]);
  }
  for (const auto& [tag, n] : s.sent_by_tag) {
    reg.counter("mps.sent_by_tag." + std::to_string(tag)).add(n);
  }
  for (const auto& [tag, n] : s.received_by_tag) {
    reg.counter("mps.received_by_tag." + std::to_string(tag)).add(n);
  }
}

}  // namespace pagen::mps
