#include "mps/fault.h"

#include <chrono>
#include <sstream>
#include <thread>

#include "rng/splitmix.h"
#include "util/error.h"

namespace pagen::mps {
namespace {

double parse_prob(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  const double p = std::stod(v, &used);
  PAGEN_CHECK_MSG(used == v.size() && p >= 0.0 && p <= 1.0,
                  "fault plan: " << key << "=" << v
                                 << " is not a probability in [0, 1]");
  return p;
}

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  const std::uint64_t x = std::stoull(v, &used);
  PAGEN_CHECK_MSG(used == v.size(), "fault plan: bad integer " << key << "="
                                                               << v);
  return x;
}

/// Uniform double in [0, 1) from a 64-bit hash.
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    PAGEN_CHECK_MSG(eq != std::string::npos && eq + 1 < item.size(),
                    "fault plan: expected key=value, got '" << item << "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64(key, value);
    } else if (key == "drop") {
      plan.drop = parse_prob(key, value);
    } else if (key == "dup") {
      plan.dup = parse_prob(key, value);
    } else if (key == "reorder") {
      plan.reorder = parse_prob(key, value);
    } else if (key == "crash") {
      const auto at = value.find('@');
      PAGEN_CHECK_MSG(at != std::string::npos && at + 1 < value.size(),
                      "fault plan: crash wants rank@step, got '" << value
                                                                 << "'");
      plan.crash_rank =
          static_cast<Rank>(parse_u64(key, value.substr(0, at)));
      plan.crash_step = parse_u64(key, value.substr(at + 1));
    } else if (key == "stall") {
      const auto at = value.find('@');
      const auto colon = value.find(':', at == std::string::npos ? 0 : at);
      PAGEN_CHECK_MSG(at != std::string::npos && colon != std::string::npos &&
                          colon > at + 1 && colon + 1 < value.size(),
                      "fault plan: stall wants rank@step:ms, got '" << value
                                                                    << "'");
      plan.stall_rank =
          static_cast<Rank>(parse_u64(key, value.substr(0, at)));
      plan.stall_step = parse_u64(key, value.substr(at + 1, colon - at - 1));
      plan.stall_ms =
          static_cast<std::uint32_t>(parse_u64(key, value.substr(colon + 1)));
    } else if (key == "jobfail") {
      const auto at = value.find('@');
      if (at == std::string::npos) {
        plan.jobfail = parse_prob(key, value);
        plan.jobfail_attempts = 1;
      } else {
        PAGEN_CHECK_MSG(at + 1 < value.size(),
                        "fault plan: jobfail wants prob[@attempts], got '"
                            << value << "'");
        plan.jobfail = parse_prob(key, value.substr(0, at));
        plan.jobfail_attempts =
            static_cast<std::uint32_t>(parse_u64(key, value.substr(at + 1)));
        PAGEN_CHECK_MSG(plan.jobfail_attempts >= 1,
                        "fault plan: jobfail attempts must be >= 1");
      }
    } else if (key == "storecorrupt") {
      plan.storecorrupt = parse_prob(key, value);
    } else if (key == "ckptcorrupt") {
      plan.ckptcorrupt = parse_prob(key, value);
    } else {
      PAGEN_CHECK_MSG(false, "fault plan: unknown key '" << key << "'");
    }
  }
  PAGEN_CHECK_MSG(plan.drop + plan.dup + plan.reorder <= 1.0,
                  "fault plan: drop + dup + reorder must not exceed 1");
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (drop > 0.0) os << ",drop=" << drop;
  if (dup > 0.0) os << ",dup=" << dup;
  if (reorder > 0.0) os << ",reorder=" << reorder;
  if (crash_rank >= 0) os << ",crash=" << crash_rank << "@" << crash_step;
  if (stall_rank >= 0) {
    os << ",stall=" << stall_rank << "@" << stall_step << ":" << stall_ms;
  }
  if (jobfail > 0.0) os << ",jobfail=" << jobfail << "@" << jobfail_attempts;
  if (storecorrupt > 0.0) os << ",storecorrupt=" << storecorrupt;
  if (ckptcorrupt > 0.0) os << ",ckptcorrupt=" << ckptcorrupt;
  return os.str();
}

double FaultPlan::svc_roll(std::uint64_t salt, std::uint64_t key,
                           std::uint32_t attempt) const {
  std::uint64_t h = rng::splitmix64_mix(seed ^ salt);
  h = rng::splitmix64_mix(h ^ key);
  h = rng::splitmix64_mix(h ^ attempt);
  return to_unit(h);
}

FaultInjector::FaultInjector(FaultPlan plan, int nranks)
    : plan_(plan),
      steps_(static_cast<std::size_t>(nranks), 0),
      limbo_(static_cast<std::size_t>(nranks)) {}

FaultAction FaultInjector::decide(Rank src, Rank dst, int tag,
                                  std::uint64_t seq,
                                  std::uint32_t attempt) const {
  if (plan_.drop == 0.0 && plan_.dup == 0.0 && plan_.reorder == 0.0) {
    return FaultAction::kDeliver;
  }
  std::uint64_t key = plan_.seed;
  key = rng::splitmix64_mix(
      key ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
              << 32) |
             static_cast<std::uint32_t>(dst)));
  key = rng::splitmix64_mix(
      key ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag))
              << 32) |
             attempt));
  key = rng::splitmix64_mix(key ^ seq);
  const double u = to_unit(key);
  if (u < plan_.drop) return FaultAction::kDrop;
  if (u < plan_.drop + plan_.dup) return FaultAction::kDup;
  if (u < plan_.drop + plan_.dup + plan_.reorder) return FaultAction::kHold;
  return FaultAction::kDeliver;
}

void FaultInjector::on_send_step(Rank src) {
  const std::uint64_t step = ++steps_[static_cast<std::size_t>(src)];
  if (src == plan_.stall_rank && step == plan_.stall_step &&
      !stall_fired_.exchange(true)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.stall_ms));
  }
  if (src == plan_.crash_rank && step >= plan_.crash_step &&
      !crash_fired_.exchange(true)) {
    throw InjectedCrash(src, step);
  }
}

std::vector<Envelope> FaultInjector::swap_held(Rank src, Rank dst, int tag,
                                               Envelope held) {
  auto& limbo = limbo_[static_cast<std::size_t>(src)];
  std::vector<Envelope> released = take_held(src, dst, tag);
  limbo.emplace(FlowKey{dst, tag}, std::move(held));
  return released;
}

std::vector<Envelope> FaultInjector::take_held(Rank src, Rank dst, int tag) {
  auto& limbo = limbo_[static_cast<std::size_t>(src)];
  std::vector<Envelope> released;
  const auto it = limbo.find(FlowKey{dst, tag});
  if (it != limbo.end()) {
    released.push_back(std::move(it->second));
    limbo.erase(it);
  }
  return released;
}

}  // namespace pagen::mps
