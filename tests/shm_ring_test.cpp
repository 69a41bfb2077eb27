/// Broadcast-ring protocol tests (src/shm/layout.hpp): the wait-free
/// single-producer push against private-cursor readers, loss accounting
/// under wraparound, and the seqlock torn-read validation — all in plain
/// memory, since the protocol is position-independent by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "shm/layout.hpp"

namespace {

using orca::shm::Cursor;
using orca::shm::Geometry;
using orca::shm::Poll;
using orca::shm::Record;
using orca::shm::RingCell;
using orca::shm::RingHeader;
using orca::shm::ring_poll;
using orca::shm::ring_push;

struct TestRing {
  RingHeader header{};
  std::vector<RingCell> cells;
  std::uint64_t capacity;
  std::uint64_t mask;

  explicit TestRing(std::uint64_t cap)
      : cells(cap), capacity(cap), mask(cap - 1) {}

  void push(std::uint64_t ns, std::int32_t event, std::int32_t tid,
            std::uint64_t arg = 0) {
    Record r;
    r.ns = ns;
    r.event = event;
    r.tid = tid;
    r.arg = arg;
    ring_push(header, cells.data(), mask, r);
  }

  Poll poll(Cursor& cur, Record* out) {
    return ring_poll(header, cells.data(), mask, capacity, cur, out);
  }
};

TEST(ShmGeometry, OffsetsAreOrderedAndAligned) {
  const Geometry g = Geometry::compute(5, 100, 30, 4096);
  EXPECT_EQ(g.event_capacity, 128u);   // rounded to pow2
  EXPECT_EQ(g.sample_capacity, 32u);
  EXPECT_LT(g.event_headers_off, g.sample_headers_off);
  EXPECT_LT(g.sample_headers_off, g.event_cells_off);
  EXPECT_LT(g.event_cells_off, g.sample_cells_off);
  EXPECT_LT(g.sample_cells_off, g.telemetry_off);
  EXPECT_LT(g.telemetry_off, g.crash_off);
  EXPECT_GE(g.total_bytes, g.crash_off + 4096);
  for (const std::uint64_t off :
       {g.event_headers_off, g.sample_headers_off, g.event_cells_off,
        g.sample_cells_off, g.telemetry_off, g.crash_off}) {
    EXPECT_EQ(off % 64, 0u) << "unaligned section at " << off;
  }
}

TEST(ShmRing, PushPollRoundtrip) {
  TestRing ring(16);
  ring.push(100, 7, 3, 42);
  ring.push(200, 8, 3, 0);

  Cursor cur;
  Record rec;
  ASSERT_EQ(ring.poll(cur, &rec), Poll::kRecord);
  EXPECT_EQ(rec.ns, 100u);
  EXPECT_EQ(rec.event, 7);
  EXPECT_EQ(rec.tid, 3);
  EXPECT_EQ(rec.arg, 42u);
  ASSERT_EQ(ring.poll(cur, &rec), Poll::kRecord);
  EXPECT_EQ(rec.ns, 200u);
  EXPECT_EQ(ring.poll(cur, &rec), Poll::kEmpty);
  EXPECT_EQ(cur.read, 2u);
  EXPECT_EQ(cur.lost, 0u);
}

TEST(ShmRing, NegativeTidSurvivesPacking) {
  TestRing ring(8);
  ring.push(1, -5, -1);
  Cursor cur;
  Record rec;
  ASSERT_EQ(ring.poll(cur, &rec), Poll::kRecord);
  EXPECT_EQ(rec.event, -5);
  EXPECT_EQ(rec.tid, -1);
}

TEST(ShmRing, WraparoundChargesLossHonestly) {
  constexpr std::uint64_t kCap = 8;
  constexpr std::uint64_t kPushes = 100;
  TestRing ring(kCap);
  for (std::uint64_t i = 0; i < kPushes; ++i) {
    ring.push(i, 1, 0);
  }
  Cursor cur;
  Record rec;
  std::uint64_t last_ns = 0;
  bool first = true;
  for (;;) {
    const Poll p = ring.poll(cur, &rec);
    if (p == Poll::kEmpty) break;
    if (p == Poll::kRecord) {
      if (!first) {
        EXPECT_GT(rec.ns, last_ns) << "reads out of order";
      }
      last_ns = rec.ns;
      first = false;
    }
  }
  // Every pushed record is either read or counted lost — never silent.
  EXPECT_EQ(cur.read + cur.lost, kPushes);
  EXPECT_EQ(cur.read, kCap);  // only the last lap is still resident
}

TEST(ShmRing, CursorFinalizeClosesTheBooks) {
  TestRing ring(16);
  for (int i = 0; i < 5; ++i) ring.push(i, 1, 0);
  Cursor cur;
  Record rec;
  ASSERT_EQ(ring.poll(cur, &rec), Poll::kRecord);
  ASSERT_EQ(ring.poll(cur, &rec), Poll::kRecord);
  orca::shm::cursor_finalize(ring.header, cur);
  EXPECT_EQ(cur.read, 2u);
  EXPECT_EQ(cur.lost, 3u);
  EXPECT_EQ(cur.read + cur.lost, 5u);
}

TEST(ShmRing, MidWriteCellPollsEmpty) {
  TestRing ring(8);
  // Simulate a producer that claimed position 0 and died mid-publish: the
  // tail moved but the cell's seq is still the invalidation marker.
  ring.header.tail.store(1, std::memory_order_release);
  ring.cells[0].seq.store(0, std::memory_order_release);
  Cursor cur;
  Record rec;
  EXPECT_EQ(ring.poll(cur, &rec), Poll::kEmpty);
  // Finalize charges the torn cell to the loss book.
  orca::shm::cursor_finalize(ring.header, cur);
  EXPECT_EQ(cur.lost, 1u);
}

TEST(ShmRing, ConcurrentReaderAccountsEveryRecord) {
  constexpr std::uint64_t kCap = 1024;
  constexpr std::uint64_t kPushes = 200000;
  TestRing ring(kCap);
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kPushes; ++i) {
      ring.push(i + 1, 1, 0, i);
    }
    done.store(true, std::memory_order_release);
  });

  Cursor cur;
  Record rec;
  std::uint64_t last_ns = 0;
  for (;;) {
    const Poll p = ring.poll(cur, &rec);
    if (p == Poll::kRecord) {
      // Torn payloads must never surface: ns values are strictly
      // increasing in push order, so any mix-up shows as disorder.
      EXPECT_GT(rec.ns, last_ns);
      EXPECT_EQ(rec.arg, rec.ns - 1);
      last_ns = rec.ns;
    } else if (p == Poll::kEmpty &&
               done.load(std::memory_order_acquire)) {
      if (ring.poll(cur, &rec) == Poll::kEmpty) break;  // drained
    }
  }
  producer.join();
  EXPECT_EQ(cur.read + cur.lost, kPushes);
  EXPECT_GT(cur.read, 0u);
}

}  // namespace
