// Deterministic ready-queue: events pop in strict (time, query, task)
// order regardless of push order, which is the total order the DAG
// executor's replay guarantee rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "net/event_queue.hpp"

namespace ahsw::net {
namespace {

TEST(EventQueue, PopsByTimeThenQueryThenTask) {
  EventQueue q;
  q.push({2.0, 0, 0});
  q.push({1.0, 1, 7});
  q.push({1.0, 0, 9});
  q.push({1.0, 0, 2});
  q.push({0.5, 3, 3});

  std::vector<ReadyEvent> popped;
  while (!q.empty()) popped.push_back(q.pop());

  ASSERT_EQ(popped.size(), 5u);
  EXPECT_EQ(popped[0].at, 0.5);
  EXPECT_EQ(popped[1].query, 0u);
  EXPECT_EQ(popped[1].task, 2u);  // same time: lower query, then lower task
  EXPECT_EQ(popped[2].task, 9u);
  EXPECT_EQ(popped[3].query, 1u);
  EXPECT_EQ(popped[4].at, 2.0);
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.push({3.0, 0, 0});
  q.push({1.0, 0, 1});
  EXPECT_EQ(q.top().task, 1u);
  ReadyEvent first = q.pop();
  EXPECT_EQ(first.at, 1.0);
  q.push({2.0, 0, 2});  // arrives after a pop, still sorts before 3.0
  EXPECT_EQ(q.pop().task, 2u);
  EXPECT_EQ(q.pop().task, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomPermutationsAllPopSorted) {
  std::vector<ReadyEvent> events;
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t t = 0; t < 3; ++t) {
      events.push_back({static_cast<SimTime>(i % 3), i % 2, i * 3 + t});
    }
  }
  std::mt19937 rng(17);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(events.begin(), events.end(), rng);
    EventQueue q;
    for (const ReadyEvent& e : events) q.push(e);
    std::vector<ReadyEvent> popped;
    while (!q.empty()) popped.push_back(q.pop());
    ASSERT_EQ(popped.size(), events.size());
    EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end())) << round;
  }
}

TEST(EventQueue, MillionEventStressPinsPopOrderAgainstReferenceSort) {
  // Reference-sort check at bulk scale: one million events over a
  // deliberately nasty distribution — heavy timestamp collisions, where only
  // the (query, task) tie-breakers order events, unique timestamps,
  // injected events (kInjectionQueryId) sharing timestamps with real
  // queries, and interleaved pop/push while draining. The popped sequence
  // must equal a reference std::sort of the same multiset exactly, element
  // for element.
  constexpr std::size_t kEvents = 1'000'000;
  std::vector<ReadyEvent> events;
  events.reserve(kEvents);
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<int> shape(0, 9);
  std::uniform_int_distribution<std::uint32_t> query(0, 9999);
  std::uniform_int_distribution<std::uint32_t> task(0, 63);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ReadyEvent e;
    const int s = shape(rng);
    if (s < 6) {
      // 60%: one of 1024 hot timestamps — long runs of equal times.
      e.at = static_cast<SimTime>(rng() % 1024);
    } else if (s < 9) {
      // 30%: fine-grained times — mostly unique.
      e.at = static_cast<SimTime>(rng() % (1 << 22)) / 64.0;
    } else {
      // 10%: injections pinned to the hot timestamps, so they collide with
      // real queries at equal time and must pop after all of them.
      e.at = static_cast<SimTime>(rng() % 1024);
      e.query = kInjectionQueryId;
      e.task = task(rng);
      events.push_back(e);
      continue;
    }
    e.query = query(rng);
    e.task = task(rng);
    events.push_back(e);
  }

  std::vector<ReadyEvent> want = events;
  std::sort(want.begin(), want.end());

  EventQueue q;
  // Push the first half, drain a quarter, then push the rest: the drain
  // interleaves pops with later pushes.
  const std::size_t half = kEvents / 2;
  for (std::size_t i = 0; i < half; ++i) q.push(events[i]);
  std::vector<ReadyEvent> got;
  got.reserve(kEvents);
  // Only events at/below this time are safely poppable before the second
  // half arrives; the second half can contain earlier timestamps, so cap
  // the early drain at the known global minimum prefix length instead:
  // pop events that are <= the smallest timestamp of the unpushed half.
  SimTime safe = events[half].at;
  for (std::size_t i = half; i < kEvents; ++i) {
    safe = std::min(safe, events[i].at);
  }
  while (!q.empty() && q.top().at < safe) got.push_back(q.pop());
  for (std::size_t i = half; i < kEvents; ++i) q.push(events[i]);
  while (!q.empty()) got.push_back(q.pop());

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].at, want[i].at) << i;
    ASSERT_EQ(got[i].query, want[i].query) << i;
    ASSERT_EQ(got[i].task, want[i].task) << i;
  }

  // Spot-check the injection contract on the popped order itself: within
  // one timestamp, no real-query event ever follows an injected one.
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (got[i].at == got[i - 1].at &&
        got[i - 1].query == kInjectionQueryId) {
      ASSERT_EQ(got[i].query, kInjectionQueryId) << i;
    }
  }
}

}  // namespace
}  // namespace ahsw::net
