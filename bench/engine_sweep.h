// Shared --engine sweep for the fig benches (ISSUE 9 satellite).
//
// Runs every requested engine over a rank ladder through the core::generate
// facade, prints a per-engine message-volume table, and writes a
// BENCH_engines JSON report. The point of the report is the message-volume
// column: the mps engine's request/resolved traffic grows with P while the
// communication-free engine must report exactly zero logical messages at
// every rank count — the Sanders & Schulz pseudorandomization trade
// (recompute F_k locally instead of asking its owner).
#pragma once

#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/engine/engine.h"
#include "core/generate.h"
#include "core/load_stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace pagen::bench {

struct EngineSweepRow {
  std::string engine;
  int ranks = 1;
  double wall_s = 0.0;
  core::RankLoad total;  ///< merged across ranks (volumes sum)
};

/// Resolve --engine: "all" (default) -> every registered engine, otherwise a
/// comma-separated list of names, each validated against the registry (a
/// typo throws the registry's "unknown engine" CheckError listing the
/// alternatives).
inline std::vector<std::string> parse_engine_list(const std::string& arg) {
  std::vector<std::string> names;
  if (arg.empty() || arg == "all") {
    for (const core::Engine* e : core::EngineRegistry::instance().engines()) {
      names.emplace_back(e->name());
    }
    return names;
  }
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    if (end > start) {
      const std::string name = arg.substr(start, end - start);
      (void)core::EngineRegistry::instance().require(name);
      names.push_back(name);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

/// Run each engine at every rung of the ladder it supports (single-rank
/// engines run at P = 1 only) and collect wall time plus the merged
/// message-volume counters. Streaming mode: no gather, no shards.
inline std::vector<EngineSweepRow> run_engine_sweep(
    const PaConfig& cfg, std::span<const std::string> engines,
    std::span<const int> rank_ladder, partition::Scheme scheme) {
  std::vector<EngineSweepRow> rows;
  for (const std::string& name : engines) {
    const core::Engine& engine =
        core::EngineRegistry::instance().require(name);
    const bool multi = engine.capabilities().multi_rank;
    for (const int p : rank_ladder) {
      if (p > 1 && !multi) continue;
      core::ParallelOptions opt;
      opt.engine = name;
      opt.ranks = p;
      opt.scheme = scheme;
      opt.gather_edges = false;
      Timer timer;
      const core::ParallelResult result = core::generate(cfg, opt);
      EngineSweepRow row;
      row.engine = name;
      row.ranks = p;
      row.wall_s = timer.seconds();
      row.total = core::merge_across_ranks(result.loads);
      rows.push_back(row);
      if (!multi) break;  // P = 1 is the only rung a sequential engine has
    }
  }
  return rows;
}

inline void print_engine_sweep(std::ostream& os,
                               std::span<const EngineSweepRow> rows) {
  Table t({"engine", "P", "wall_s", "edges", "req_out", "req_in", "res_out",
           "total_msgs"});
  for (const EngineSweepRow& r : rows) {
    t.add_row({r.engine, std::to_string(r.ranks), fmt_f(r.wall_s, 3),
               fmt_count(r.total.edges), fmt_count(r.total.requests_sent),
               fmt_count(r.total.requests_received),
               fmt_count(r.total.resolved_sent),
               fmt_count(r.total.total_messages())});
  }
  t.print(os);
  os << "\ncommfree recomputes remote F_k from the seed instead of asking\n"
        "its owner: the message-volume columns must read 0 at every P.\n";
}

/// BENCH_engines JSON: one row per (engine, P) with the full message-volume
/// breakdown, so CI can assert commfree's zero request/resolved messages
/// from the artifact alone.
inline bool write_engine_sweep_json(const std::string& path,
                                    const std::string& bench,
                                    const PaConfig& cfg,
                                    std::span<const EngineSweepRow> rows) {
  if (path.empty()) return false;
  std::ofstream os(path, std::ios::trunc);
  if (!os.is_open()) return false;
  os << "{\n"
     << "  \"schema\": \"pagen.bench.engines.v1\",\n"
     << "  \"bench\": \"" << bench << "\",\n"
     << "  \"config\": {\"n\": " << cfg.n << ", \"x\": " << cfg.x
     << ", \"p\": " << cfg.p << ", \"seed\": " << cfg.seed << "},\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EngineSweepRow& r = rows[i];
    os << "    {\"engine\": \"" << r.engine << "\", \"ranks\": " << r.ranks
       << ", \"wall_s\": " << r.wall_s << ", \"edges\": " << r.total.edges
       << ", \"requests_sent\": " << r.total.requests_sent
       << ", \"requests_received\": " << r.total.requests_received
       << ", \"resolved_sent\": " << r.total.resolved_sent
       << ", \"resolved_received\": " << r.total.resolved_received
       << ", \"queued\": " << r.total.queued
       << ", \"total_messages\": " << r.total.total_messages()
       << ", \"retries\": " << r.total.retries << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.good();
}

}  // namespace pagen::bench
