// The mps rank's slot tables (core/genrt/slot_store.h): the F word at both
// widths, the pooled waiter queues, and the flat slot-keyed table.
#include "core/genrt/slot_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pagen::core::genrt {
namespace {

TEST(SlotWords, WidthIsPickedFromNAtTheParkedBit) {
  constexpr NodeId kBoundary = NodeId{1} << 31;
  EXPECT_TRUE(slot_words_fit_u32(1000));
  EXPECT_TRUE(slot_words_fit_u32(kBoundary));
  EXPECT_FALSE(slot_words_fit_u32(kBoundary + 1));
  EXPECT_FALSE(slot_words_fit_u32(NodeId{1} << 40));
  EXPECT_EQ(SlotStore<std::uint32_t>::kMaxNodes, kBoundary);
  EXPECT_EQ(SlotStore<std::uint64_t>::kMaxNodes, NodeId{1} << 63);
}

// At the largest n a width takes, the largest value (n - 2) is final below
// the parked bit, and parked it still differs from an open word.
TEST(SlotWords, LargestValueOfTheWidestNFits) {
  {
    SlotStore<std::uint32_t> f(2);
    const NodeId top = SlotStore<std::uint32_t>::kMaxNodes - 2;
    f.set_value(0, top);
    EXPECT_TRUE(f.resolved(0));
    EXPECT_EQ(f.value(0), top);
    f.park(1, top);
    EXPECT_TRUE(f.parked(1));
    EXPECT_FALSE(f.resolved(1));
    EXPECT_EQ(f.unpark(1), top);
    EXPECT_FALSE(f.parked(1));
  }
  {
    SlotStore<std::uint64_t> f(2);
    const NodeId top = SlotStore<std::uint64_t>::kMaxNodes - 2;
    f.set_value(0, top);
    EXPECT_EQ(f.value(0), top);
    f.park(1, top);
    EXPECT_TRUE(f.parked(1));
    EXPECT_EQ(f.unpark(1), top);
  }
}

template <typename Word>
class SlotStoreTest : public ::testing::Test {};
using Words = ::testing::Types<std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(SlotStoreTest, Words);

TYPED_TEST(SlotStoreTest, ParkUnparkAndFinalValues) {
  SlotStore<TypeParam> f(4);
  EXPECT_EQ(f.size(), 4U);
  for (Count s = 0; s < 4; ++s) {
    EXPECT_FALSE(f.resolved(s));
    EXPECT_FALSE(f.parked(s));
  }
  f.set_value(0, 0);  // a final 0 is a value, not an open word
  f.set_value(1, 7);
  f.park(2, 5);
  EXPECT_TRUE(f.resolved(0));
  EXPECT_EQ(f.value(0), 0U);
  EXPECT_TRUE(f.parked(2));
  EXPECT_FALSE(f.resolved(2));

  // A parked slot checkpoints as kNil, like an open one.
  EXPECT_EQ(f.final_values(), (std::vector<NodeId>{0, 7, kNil, kNil}));

  EXPECT_EQ(f.unpark(2), 5U);
  EXPECT_FALSE(f.parked(2));
  EXPECT_FALSE(f.resolved(2));
  f.set_value(2, 5);
  f.set_value(3, 2);
  EXPECT_EQ(f.final_values(), (std::vector<NodeId>{0, 7, 5, 2}));
}

Waiter waiter(NodeId t) { return {.t = t, .e = 0, .owner = 0, .root = 0}; }

std::vector<NodeId> drained(WaiterQueues& q, Count slot) {
  std::vector<NodeId> order;
  q.drain(slot, [&](const Waiter& w) { order.push_back(w.t); });
  return order;
}

TEST(WaiterQueues, AnswersInFifoOrderAndReportsDepth) {
  WaiterQueues q(3);
  EXPECT_EQ(q.push(1, waiter(10)), 1U);
  EXPECT_EQ(q.push(2, waiter(20)), 1U);
  EXPECT_EQ(q.push(1, waiter(11)), 2U);
  EXPECT_EQ(q.push(1, waiter(12)), 3U);
  EXPECT_EQ(q.push(2, waiter(21)), 2U);
  EXPECT_TRUE(drained(q, 0).empty());
  EXPECT_EQ(drained(q, 1), (std::vector<NodeId>{10, 11, 12}));
  EXPECT_TRUE(drained(q, 1).empty());
  // A drained queue starts over at depth 1, on reused nodes.
  EXPECT_EQ(q.push(1, waiter(13)), 1U);
  EXPECT_EQ(q.pool_size(), 5U);
  EXPECT_EQ(drained(q, 2), (std::vector<NodeId>{20, 21}));
  EXPECT_EQ(drained(q, 1), (std::vector<NodeId>{13}));
}

// A local cascade: answering a waiter of slot 0 queues a waiter onto
// slot 1 mid-walk. The push reuses the node just answered, and the rest of
// slot 0's queue is still answered in order.
TEST(WaiterQueues, PushesWhileDrainingReuseAnsweredNodes) {
  WaiterQueues q(2);
  for (NodeId t = 1; t <= 4; ++t) q.push(0, waiter(t));
  ASSERT_EQ(q.pool_size(), 4U);
  std::vector<NodeId> order;
  q.drain(0, [&](const Waiter& w) {
    order.push_back(w.t);
    q.push(1, waiter(100 + w.t));
  });
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(q.pool_size(), 4U) << "every push reused a freed node";
  EXPECT_EQ(drained(q, 1), (std::vector<NodeId>{101, 102, 103, 104}));

  // A pool whose free list is empty grows by one node per push.
  for (NodeId t = 0; t < 6; ++t) q.push(1, waiter(t));
  EXPECT_EQ(q.pool_size(), 6U);
}

TEST(SlotMap, GrowsPastItsFirstCapacityAndFindsEverything) {
  SlotMap<std::uint32_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0U);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_FALSE(m.erase(3));

  constexpr Count kKeys = 1000;
  for (Count k = 0; k < kKeys; ++k) {
    m[k * 6 + 1] = static_cast<std::uint32_t>(k);
  }
  EXPECT_EQ(m.size(), kKeys);
  EXPECT_GT(m.capacity(), SlotMap<std::uint32_t>::kFirstCapacity);
  EXPECT_GE(m.capacity(), 2 * kKeys) << "at most half full";
  for (Count k = 0; k < kKeys; ++k) {
    const std::uint32_t* v = m.find(k * 6 + 1);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
    EXPECT_EQ(m.find(k * 6 + 2), nullptr);
  }
  // operator[] on a present slot returns its value, not a fresh one.
  m[7] += 5;
  EXPECT_EQ(*m.find(7), 6U);
  EXPECT_EQ(m.size(), kKeys);
}

// Random inserts and erases over a small key range keep long probe runs
// and wrap-arounds busy; the table must agree with std::map throughout.
TEST(SlotMap, EraseKeepsEveryOtherEntryReachable) {
  SlotMap<std::int64_t> m;
  std::map<Count, std::int64_t> oracle;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int op = 0; op < 20000; ++op) {
    const Count slot = next() % 300;
    if (next() % 3 == 0) {
      EXPECT_EQ(m.erase(slot), oracle.erase(slot) == 1) << op;
    } else {
      const auto v = static_cast<std::int64_t>(next() % 1000);
      m[slot] = v;
      oracle[slot] = v;
    }
    ASSERT_EQ(m.size(), oracle.size()) << op;
    if (op % 97 == 0) {
      for (Count s = 0; s < 300; ++s) {
        const auto it = oracle.find(s);
        const std::int64_t* v = m.find(s);
        if (it == oracle.end()) {
          ASSERT_EQ(v, nullptr) << "op " << op << " slot " << s;
        } else {
          ASSERT_NE(v, nullptr) << "op " << op << " slot " << s;
          ASSERT_EQ(*v, it->second);
        }
      }
    }
  }
  std::map<Count, std::int64_t> seen;
  m.for_each([&seen](Count s, std::int64_t v) { seen.emplace(s, v); });
  EXPECT_EQ(seen, oracle);
  for (const auto& [s, v] : oracle) EXPECT_TRUE(m.erase(s));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(0), nullptr);
}

}  // namespace
}  // namespace pagen::core::genrt
