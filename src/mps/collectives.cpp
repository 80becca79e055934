#include "mps/collectives.h"

#include "util/error.h"

namespace pagen::mps {

CollectiveContext::CollectiveContext(int nranks)
    : nranks_(nranks), slots_(static_cast<std::size_t>(nranks)) {
  PAGEN_CHECK(nranks >= 1);
}

std::vector<std::vector<std::byte>> CollectiveContext::exchange(
    Rank rank, std::vector<std::byte> in,
    const std::function<void()>& service, std::chrono::milliseconds tick) {
  PAGEN_CHECK(rank >= 0 && rank < nranks_);
  std::unique_lock lock(mutex_);
  if (poisoned_) throw WorldAborted();
  slots_[static_cast<std::size_t>(rank)] = std::move(in);
  const std::uint64_t my_generation = generation_;
  const auto round_over = [&] {
    return generation_ != my_generation || poisoned_;
  };
  if (++arrived_ == nranks_) {
    // Last arriver publishes the round and opens the next one. `published_`
    // cannot be overwritten until every rank of this round has re-entered
    // exchange(), which requires them to first copy it out below.
    published_ = std::move(slots_);
    slots_.assign(static_cast<std::size_t>(nranks_), {});
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  } else if (!service) {
    cv_.wait(lock, round_over);
  } else {
    while (!cv_.wait_for(lock, tick, round_over)) {
      // Round not complete yet: run the service hook unlocked so it can
      // touch mailboxes and peers without holding up other ranks' arrivals.
      lock.unlock();
      service();
      lock.lock();
    }
  }
  if (generation_ == my_generation && poisoned_) throw WorldAborted();
  return published_;
}

void CollectiveContext::poison() {
  {
    std::lock_guard lock(mutex_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

}  // namespace pagen::mps
