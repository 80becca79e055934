#include "svc/job.h"

#include <bit>

#include "core/engine/engine.h"
#include "util/error.h"
#include "util/hash.h"

namespace pagen::svc {
namespace {

/// Domain tag: rotate when the hashed schema changes so stale store
/// markers from an older layout can never satisfy a probe. '02 added the
/// engine field; '03 dropped the buffering knobs.
constexpr std::uint64_t kSpecHashVersion = 0x7061672e737663'03ULL;

}  // namespace

std::uint64_t spec_hash(const JobSpec& spec) {
  Fnv1a h;
  h.word(kSpecHashVersion);
  h.word(spec.config.n);
  h.word(spec.config.x);
  h.word(std::bit_cast<std::uint64_t>(spec.config.p));
  h.word(spec.config.seed);
  h.str(spec.engine);
  h.word(static_cast<std::uint64_t>(spec.ranks));
  h.word(static_cast<std::uint64_t>(spec.scheme));
  return h.digest();
}

core::ParallelOptions job_options(const JobSpec& spec) {
  core::ParallelOptions opt;
  opt.engine = spec.engine;
  opt.ranks = spec.ranks;
  opt.scheme = spec.scheme;
  opt.buffer_capacity = spec.buffer_capacity;
  opt.node_batch = spec.node_batch;
  opt.gather_edges = spec.sink == Sink::kGather;
  if (spec.sink == Sink::kCompressedStore) {
    // Edges stream from the sink straight into the compressed store —
    // never gathered, regardless of graph size.
    opt.store_dir = spec.store_dir;
  }
  opt.transport.fault_plan = spec.fault_plan;
  opt.transport.reliable = spec.reliable;
  opt.max_respawns = spec.max_respawns;
  opt.transport.rto_base_ms = spec.rto_base_ms;
  opt.transport.rto_max_ms = spec.rto_max_ms;
  return opt;
}

std::string validate(const JobSpec& spec) {
  try {
    core::check_request(core::EngineRegistry::instance().require(spec.engine),
                        spec.config, job_options(spec));
  } catch (const CheckError& e) {
    return e.what();
  }
  if (spec.sink == Sink::kCompressedStore && spec.store_dir.empty()) {
    return "Sink::kCompressedStore requires store_dir";
  }
  if (spec.max_attempts < 1) return "max_attempts must be >= 1";
  return {};
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
    case JobState::kFailed:
      return "failed";
    case JobState::kShed:
      return "shed";
  }
  return "unknown";
}

const char* to_string(Reject r) {
  switch (r) {
    case Reject::kNone:
      return "accepted";
    case Reject::kQueueFull:
      return "queue-full";
    case Reject::kShuttingDown:
      return "shutting-down";
    case Reject::kInvalidSpec:
      return "invalid-spec";
    case Reject::kDeadlineExpired:
      return "deadline-expired";
    case Reject::kCircuitOpen:
      return "circuit-open";
  }
  return "unknown";
}

}  // namespace pagen::svc
