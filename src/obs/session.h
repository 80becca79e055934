// Session: the per-run container of observability state.
//
// A Session owns one RankObserver per rank plus one for the driver thread
// (partition construction, world setup). Instrumented code receives a
// RankObserver* that is null when observation is off — the entire subsystem
// costs one branch per hook on the disabled path. Each observer is
// single-writer (its rank's thread), so recording needs no locks; the
// Session is read for export only after the world has joined.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pagen::obs {

/// One rank's observation endpoint: an event tracer and a metrics registry.
class RankObserver {
 public:
  RankObserver(int rank, const Config& cfg, const char* label = nullptr)
      : rank_(rank),
        causal_(cfg.causal),
        trace_(rank, cfg.ring_capacity, cfg.trace_sample, label),
        metrics_() {}

  [[nodiscard]] int rank() const { return rank_; }
  /// Causal chain tracing requested (Config::causal). The mps rank checks
  /// this once at construction and stamps envelopes only when set.
  [[nodiscard]] bool causal() const { return causal_; }
  [[nodiscard]] Tracer& trace() { return trace_; }
  [[nodiscard]] const Tracer& trace() const { return trace_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  int rank_;
  bool causal_;
  Tracer trace_;
  MetricsRegistry metrics_;
};

/// Null-safe RAII span over an optional observer.
[[nodiscard]] inline Tracer::Span span(RankObserver* ob, const char* name) {
  return Tracer::Span{ob != nullptr ? &ob->trace() : nullptr, name};
}

class Session {
 public:
  /// Observers for ranks 0..nranks-1 plus a driver observer exported as an
  /// extra trace track named "driver" (tid nranks).
  Session(int nranks, Config cfg);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] int nranks() const { return static_cast<int>(ranks_.size()); }

  [[nodiscard]] RankObserver& rank(int r);
  [[nodiscard]] const RankObserver& rank(int r) const;
  [[nodiscard]] RankObserver& driver() { return *driver_; }
  [[nodiscard]] const RankObserver& driver() const { return *driver_; }

  /// Chrome trace-event JSON of every track (ranks + driver).
  void write_trace(std::ostream& os) const;

  /// Metrics JSON of the rank registries (driver metrics are merged into
  /// the driver's own entry at tid nranks).
  void write_metrics(std::ostream& os) const;

  /// Prometheus text format of the cross-rank merged totals (obs/prom.h).
  void write_prometheus(std::ostream& os) const;

  /// Write config().trace_out / metrics_out / prom_out when set; returns
  /// the paths actually written. Call after the instrumented run has
  /// joined.
  std::vector<std::string> export_files() const;

 private:
  Config cfg_;
  std::vector<std::unique_ptr<RankObserver>> ranks_;
  std::unique_ptr<RankObserver> driver_;
};

}  // namespace pagen::obs
