/// Measurement-substrate tests: time counters, sample stores, the binary
/// trace format, and the libpsx-style C API.
#include <gtest/gtest.h>

#include <cstdio>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perf/counter.hpp"
#include "perf/psx.h"
#include "perf/samples.hpp"
#include "perf/trace.hpp"
#include "translate/region_registry.hpp"

namespace {

using namespace orca::perf;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(HwTimeCounter, MonotonicAndCalibrated) {
  for (const auto source : {CounterSource::kTsc, CounterSource::kSteady}) {
    HwTimeCounter counter(source);
    const std::uint64_t a = counter.read();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t b = counter.read();
    EXPECT_GT(b, a);
    const double seconds = counter.to_seconds(b - a);
    EXPECT_GT(seconds, 0.001);
    EXPECT_LT(seconds, 1.0);
  }
  // Calibrated TSC frequency should be in a plausible CPU range.
  EXPECT_GT(HwTimeCounter::tsc_hz(), 1e8);
  EXPECT_LT(HwTimeCounter::tsc_hz(), 1e11);
}

TEST(SampleBuffer, RecordsUntilCapThenDrops) {
  SampleBuffer buf;
  buf.reserve(10);
  for (int i = 0; i < 15; ++i) {
    buf.record({static_cast<std::uint64_t>(i), 0, 1, 0});
  }
  EXPECT_EQ(buf.samples().size(), 10u);
  EXPECT_EQ(buf.dropped(), 5u);
  buf.clear();
  EXPECT_TRUE(buf.samples().empty());
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(SampleStore, MergesAcrossThreadsSortedByTicks) {
  SampleStore store(100);
  // Three writers alive at once each hold a lane of their own, so the
  // merge spans three lanes.
  std::latch recorded(3);
  std::vector<std::thread> writers;
  for (const EventSample s : {EventSample{30, 0, 1, 0}, EventSample{10, 0, 1, 2},
                              EventSample{20, 0, 2, 1}}) {
    writers.emplace_back([&store, &recorded, s] {
      store.local_buffer().record(s);
      recorded.arrive_and_wait();
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(store.lanes(), 3u);
  const auto merged = store.merged_samples();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].ticks, 10u);
  EXPECT_EQ(merged[1].ticks, 20u);
  EXPECT_EQ(merged[2].ticks, 30u);
  EXPECT_EQ(store.total_samples(), 3u);
  EXPECT_EQ(store.total_dropped(), 0u);
}

// Callstacks go into the recording thread's lane, whatever its gtid: three
// writers that all carry gtid 0 record at once, and the merge returns every
// record tick-sorted with its frames as recorded.
TEST(SampleStore, SameTidThreadsKeepEveryCallstackIntact) {
  constexpr std::uint64_t kThreads = 3;
  constexpr std::uint64_t kPerThread = 200;
  auto ip = [](std::uint64_t tick, std::uint64_t k) {
    return reinterpret_cast<const void*>(0x1000 + tick * 16 + k);
  };
  SampleStore store(16);
  std::latch start(kThreads);
  std::latch done(kThreads);  // no writer hands its lane on early
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t tick = i * kThreads + t;  // interleaved
        std::vector<const void*> frames;
        for (std::uint64_t k = 0; k <= tick % 7; ++k) frames.push_back(ip(tick, k));
        store.local_buffer().record_callstack(tick, tick + 1, ip(t, 0), frames);
        store.local_buffer().record({tick, 0, 2, 0});
      }
      done.arrive_and_wait();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(store.lanes(), kThreads);

  const auto stacks = store.merged_callstacks();
  ASSERT_EQ(stacks.size(), kThreads * kPerThread);
  for (std::uint64_t tick = 0; tick < stacks.size(); ++tick) {
    const CallstackRecord& rec = stacks[tick];
    ASSERT_EQ(rec.ticks, tick);
    EXPECT_EQ(rec.region_id, tick + 1);
    EXPECT_EQ(rec.region_fn, ip(tick % kThreads, 0));
    ASSERT_EQ(rec.frames.size(), tick % 7 + 1);
    for (std::uint64_t k = 0; k < rec.frames.size(); ++k) {
      EXPECT_EQ(rec.frames[k], ip(tick, k)) << "tick " << tick << " frame " << k;
    }
  }
  // Event samples are capped per lane; callstack records are not.
  EXPECT_EQ(store.total_samples(), kThreads * 16);
  EXPECT_EQ(store.total_dropped(), kThreads * (kPerThread - 16));

  store.clear();
  EXPECT_EQ(store.total_samples(), 0u);
  EXPECT_TRUE(store.merged_callstacks().empty());
}

// Two MiniMPI rank masters both carry gtid 0; recording at the same time,
// neither may lose a sample to the other.
TEST(SampleStore, ConcurrentSameTidWritersDropNothing) {
  constexpr int kPerThread = 20000;
  SampleStore store(1u << 20);
  std::latch start(2);
  auto writer = [&] {
    start.arrive_and_wait();
    for (int i = 0; i < kPerThread; ++i) {
      store.local_buffer().record({static_cast<std::uint64_t>(i), 0, 1, 0});
    }
  };
  std::thread a(writer);
  std::thread b(writer);
  a.join();
  b.join();
  EXPECT_EQ(store.total_samples(), 2u * kPerThread);
  EXPECT_EQ(store.total_dropped(), 0u);
  EXPECT_EQ(store.merged_samples().size(), 2u * kPerThread);
}

TEST(SampleStore, ExitedThreadsHandTheirLanesOn) {
  SampleStore store(16);
  for (std::uint64_t i = 0; i < 3; ++i) {
    std::thread([&store, i] { store.local_buffer().record({i, 0, 1, 0}); })
        .join();
  }
  EXPECT_EQ(store.lanes(), 1u);
  EXPECT_EQ(store.total_samples(), 3u);
  store.clear();
  EXPECT_EQ(store.total_samples(), 0u);
}

TEST(SampleStore, ThreadOutlivingTheStoreStillReturnsItsLane) {
  auto store = std::make_unique<SampleStore>(16);
  std::latch recorded(2);
  std::latch store_gone(1);
  std::thread t([&] {
    store->local_buffer().record({1, 0, 1, 0});
    recorded.arrive_and_wait();
    store_gone.wait();
  });
  recorded.arrive_and_wait();
  EXPECT_EQ(store->total_samples(), 1u);
  store.reset();
  store_gone.count_down();
  t.join();  // the lease hands its lane back to the orphaned pool

  // A store created afterwards never sees a stale lane of the old one.
  SampleStore next(16);
  next.local_buffer().record({2, 0, 1, 0});
  EXPECT_EQ(next.total_samples(), 1u);
  EXPECT_EQ(next.lanes(), 1u);
}

TEST(Trace, BinaryRoundTrip) {
  TraceData data;
  for (int i = 0; i < 100; ++i) {
    data.samples.push_back({static_cast<std::uint64_t>(i * 10),
                            static_cast<std::uint64_t>(i % 7),
                            i % 5, i % 3});
  }
  data.callstacks.push_back(
      {42, 3, reinterpret_cast<const void*>(0xABC),
       {reinterpret_cast<const void*>(0x1), reinterpret_cast<const void*>(0x2)}});

  const std::string path = temp_path("roundtrip.orcatrc");
  ASSERT_TRUE(write_trace(path, data));

  TraceData loaded;
  ASSERT_TRUE(read_trace(path, &loaded));
  ASSERT_EQ(loaded.samples.size(), data.samples.size());
  EXPECT_EQ(loaded.samples[50].ticks, data.samples[50].ticks);
  EXPECT_EQ(loaded.samples[50].event, data.samples[50].event);
  ASSERT_EQ(loaded.callstacks.size(), 1u);
  EXPECT_EQ(loaded.callstacks[0].region_fn,
            reinterpret_cast<const void*>(0xABC));
  ASSERT_EQ(loaded.callstacks[0].frames.size(), 2u);
  EXPECT_EQ(loaded.callstacks[0].frames[1],
            reinterpret_cast<const void*>(0x2));
  std::remove(path.c_str());
}

TEST(Trace, RejectsMissingAndMalformedFiles) {
  TraceData out;
  EXPECT_FALSE(read_trace("/nonexistent/file.orcatrc", &out));
  EXPECT_FALSE(read_trace("/dev/null", &out));

  const std::string path = temp_path("badmagic.orcatrc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTATRACE-GARBAGE", f);
  std::fclose(f);
  EXPECT_FALSE(read_trace(path, &out));
  EXPECT_FALSE(read_trace(path, nullptr));
  std::remove(path.c_str());
}

TEST(Trace, CsvExport) {
  const std::string path = temp_path("samples.csv");
  ASSERT_TRUE(write_csv(path, {{100, 5, 1, 2}, {200, 6, 2, 3}}));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "ticks,event,tid,region_id\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "100,1,2,5\n");
  std::fclose(f);
  std::remove(path.c_str());
}

// --- libpsx-style C API ----------------------------------------------------------

TEST(Psx, CallstackGet) {
  const void* frames[16] = {};
  const int n = psx_callstack_get(frames, 16, 0);
  ASSERT_GT(n, 0);
  for (int i = 0; i < n; ++i) EXPECT_NE(frames[i], nullptr);
  EXPECT_EQ(psx_callstack_get(nullptr, 16, 0), 0);
  EXPECT_EQ(psx_callstack_get(frames, 0, 0), 0);
}

TEST(Psx, IpToSourceThroughRegionRegistry) {
  const int anchor = 0;
  orca::translate::RegionRegistry::instance().add(
      &anchor, {"kernel", "kernel.cpp", 17, "parallel"});
  psx_source_info info{};
  ASSERT_EQ(psx_ip_to_source(&anchor, &info), 0);
  EXPECT_EQ(info.exact, 1);
  EXPECT_STREQ(info.file, "kernel.cpp");
  EXPECT_EQ(info.line, 17u);

  EXPECT_EQ(psx_ip_to_source(nullptr, &info), -1);
  EXPECT_EQ(psx_ip_to_source(&anchor, nullptr), -1);
}

TEST(Psx, TimerReadsAndConverts) {
  const unsigned long long a = psx_timer_read();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const unsigned long long b = psx_timer_read();
  EXPECT_GT(b, a);
  EXPECT_GT(psx_timer_seconds(b - a), 0.001);
}

}  // namespace
