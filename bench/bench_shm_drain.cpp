/// Shm drain throughput — how fast can orcamon's sharded readers pull
/// records out of a producer's broadcast rings? (docs/FLEET.md)
///
/// P producer threads each push N events through shm::mirror_event (the
/// armed fast path: clock read + wait-free broadcast push) while S reader
/// shards — each with its own SegmentReader attachment, owning rings
/// r % S == shard, exactly orcamon's ownership rule — drain concurrently.
/// Reports drained Mev/s per shard count; the loss column shows what the
/// ring capacity could not absorb when readers fall behind.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "shm/exporter.hpp"
#include "shm/reader.hpp"

using orca::bench::flag_int;
using orca::bench::has_flag;

namespace {

struct DrainResult {
  double seconds = 0;
  std::uint64_t read = 0;
  std::uint64_t lost = 0;
  std::uint64_t produced = 0;
};

DrainResult run_drain(int producers, int events_per_producer, int shards,
                      int ring_capacity) {
  orca::shm::ExporterOptions opts;
  opts.name = orca::shm::default_segment_name(
      "orcabench-" + std::to_string(::getpid()));
  opts.label = "bench_shm_drain";
  opts.ring_count = static_cast<std::uint32_t>(producers);
  opts.event_capacity = static_cast<std::uint32_t>(ring_capacity);
  opts.sample_capacity = 16;
  opts.heartbeat_ms = 50;
  if (!orca::shm::arm(opts)) {
    std::fprintf(stderr, "bench_shm_drain: shm::arm failed\n");
    std::exit(1);
  }

  std::atomic<bool> go{false};
  std::atomic<int> producers_left{producers};

  std::vector<std::thread> prod;
  prod.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    prod.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < events_per_producer; ++i) {
        orca::shm::mirror_event(p, 1);
      }
      producers_left.fetch_sub(1, std::memory_order_release);
    });
  }

  // One SegmentReader per shard: cursors are reader-private, and each
  // shard only polls the rings it owns, so the attachments never race.
  std::vector<std::unique_ptr<orca::shm::SegmentReader>> readers;
  for (int s = 0; s < shards; ++s) {
    orca::shm::AttachError err;
    auto r = orca::shm::SegmentReader::attach(opts.name, &err);
    if (r == nullptr) {
      std::fprintf(stderr, "bench_shm_drain: attach failed: %s\n",
                   err.message.c_str());
      std::exit(1);
    }
    readers.push_back(std::move(r));
  }

  std::vector<std::thread> drains;
  for (int s = 0; s < shards; ++s) {
    drains.emplace_back([&, s] {
      orca::shm::SegmentReader& reader = *readers[static_cast<std::size_t>(s)];
      orca::shm::Record rec;
      for (;;) {
        bool progressed = false;
        for (std::uint32_t r = static_cast<std::uint32_t>(s);
             r < reader.ring_count();
             r += static_cast<std::uint32_t>(shards)) {
          while (reader.poll_event(r, &rec) == orca::shm::Poll::kRecord) {
            progressed = true;
          }
        }
        if (!progressed &&
            producers_left.load(std::memory_order_acquire) == 0) {
          break;  // producers finished and a full sweep came up empty
        }
      }
    });
  }

  const std::uint64_t t0 = orca::SteadyClock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : prod) t.join();
  for (auto& t : drains) t.join();
  const std::uint64_t t1 = orca::SteadyClock::now();

  DrainResult result;
  result.seconds = static_cast<double>(t1 - t0) * 1e-9;
  for (int s = 0; s < shards; ++s) {
    orca::shm::SegmentReader& reader = *readers[static_cast<std::size_t>(s)];
    for (std::uint32_t r = static_cast<std::uint32_t>(s);
         r < reader.ring_count(); r += static_cast<std::uint32_t>(shards)) {
      reader.finalize_ring(r);
    }
    result.read += reader.total_read();
    result.lost += reader.total_lost();
  }
  result.produced = readers[0]->total_produced();
  orca::shm::disarm();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "smoke");
  const int producers = flag_int(argc, argv, "producers", 4);
  const int events =
      flag_int(argc, argv, "events", smoke ? 200000 : 1000000);
  const int ring_capacity = flag_int(argc, argv, "ring", 16384);

  std::printf("shm drain throughput: %d producer(s) x %d events, ring "
              "capacity %d, sharded readers (docs/FLEET.md)\n\n",
              producers, events, ring_capacity);

  for (const int shards : {1, 2, 4}) {
    const DrainResult r = run_drain(producers, events, shards, ring_capacity);
    const double mev =
        static_cast<double>(r.read) / r.seconds * 1e-6;
    std::printf("shards=%d  drained %llu of %llu (lost %llu) in %.3fs -> "
                "%.2f Mev/s\n",
                shards, static_cast<unsigned long long>(r.read),
                static_cast<unsigned long long>(r.produced),
                static_cast<unsigned long long>(r.lost), r.seconds, mev);
    if (r.read + r.lost != r.produced) {
      std::fprintf(stderr, "bench_shm_drain: loss books do not balance "
                   "(read %llu + lost %llu != produced %llu)\n",
                   static_cast<unsigned long long>(r.read),
                   static_cast<unsigned long long>(r.lost),
                   static_cast<unsigned long long>(r.produced));
      return 1;
    }
    orca::bench::JsonRow("shm_drain")
        .str("shards", std::to_string(shards).c_str())
        .num("threads", producers)
        .num("events", events)
        .num("read", static_cast<unsigned long long>(r.read))
        .num("lost", static_cast<unsigned long long>(r.lost))
        .fixed("mev_per_s", mev, 3)
        .print();
  }
  return 0;
}
