/// End-to-end integration: the full paper pipeline on real workloads.
/// NPB kernels run under the prototype collector; the collector's event
/// stream must agree exactly with the kernel's calibrated region schedule
/// (Table I), and the spill → offline-reconstruction path must produce a
/// profile whose sample count matches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "npb/kernels.hpp"
#include "npb/multizone.hpp"
#include "perf/counter.hpp"
#include "perf/trace.hpp"
#include "runtime/ompc_api.h"
#include "runtime/runtime.hpp"
#include "tool/client2.hpp"
#include "tool/collector_tool.hpp"
#include "collector/names.hpp"
#include "unwind/user_model.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::tool::PrototypeCollector;
using orca::tool::ToolOptions;

TEST(Pipeline, CollectorSeesExactlyTable1ForkEvents) {
  // BT at full scale makes exactly 1014 region calls (Table I); the
  // collector must observe exactly 1014 FORK and 1014 JOIN events.
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.record_callstacks = true;
  opts.use_region_fn_extension = true;
  ASSERT_TRUE(tool.attach(opts));

  orca::npb::NpbOptions bench;
  bench.num_threads = 2;
  bench.scale = 1.0;
  const auto result = orca::npb::run_bt(bench);
  rt.quiesce();
  tool.detach();

  EXPECT_EQ(result.region_calls, 1014u);
  const auto report = tool.finalize();
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_FORK), 1014u);
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_JOIN), 1014u);
  // Each BT region contains two implicit barriers (the worksharing loop's
  // and the region-end barrier), both observed by 2 threads.
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_THR_BEGIN_IBAR),
            2u * 2u * 1014u);
  EXPECT_EQ(report.dropped_samples, 0u);

  // Every join produced a callstack. The profile groups by *calling
  // context*: BT has 11 distinct regions, and the calibration region
  // (error_norm) is reached through two call paths (direct + top-up), so
  // 12 contexts is the exact expected answer.
  std::uint64_t profiled = 0;
  for (const auto& entry : report.callstack_profile) {
    profiled += entry.samples;
  }
  EXPECT_EQ(profiled, 1014u);
  EXPECT_EQ(report.callstack_profile.size(), 12u);
  Runtime::make_current(nullptr);
}

TEST(Pipeline, SpillAndOfflineReconstructionRoundTrip) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.use_region_fn_extension = true;
  ASSERT_TRUE(tool.attach(opts));
  orca::npb::NpbOptions bench;
  bench.num_threads = 2;
  bench.scale = 1.0;
  (void)orca::npb::run_ft(bench);  // 112 region calls
  rt.quiesce();
  tool.detach();

  const std::string path =
      std::string(::testing::TempDir()) + "pipeline_ft.orcatrc";
  ASSERT_TRUE(orca::perf::write_trace(path, tool.trace_data()));

  orca::perf::TraceData loaded;
  ASSERT_TRUE(orca::perf::read_trace(path, &loaded));
  EXPECT_EQ(loaded.callstacks.size(), 112u);

  // Offline pass: every reconstructed stack resolves its region frame
  // (the extension tagged each record with the outlined procedure).
  std::size_t with_region_frame = 0;
  for (const auto& rec : loaded.callstacks) {
    const auto user = orca::unwind::reconstruct(rec.frames, rec.region_fn);
    ASSERT_FALSE(user.frames.empty());
    if (user.frames[0].resolution == orca::unwind::Resolution::kRegion) {
      ++with_region_frame;
      EXPECT_NE(user.frames[0].file.find("ft.cpp"), std::string::npos);
    }
  }
  EXPECT_EQ(with_region_frame, 112u);
  std::remove(path.c_str());
  Runtime::make_current(nullptr);
}

/// The report a record-at-a-time offline pass builds from the exported
/// trace: every join record reconstructed and rendered on its own, and the
/// fork/join and begin/end pairs walked over the tick-merged samples.
orca::tool::Report reference_report(const orca::perf::TraceData& data,
                                    const orca::perf::HwTimeCounter& counter) {
  orca::tool::Report ref;
  std::map<std::string, std::uint64_t> profile;
  for (const auto& rec : data.callstacks) {
    ++profile[orca::unwind::reconstruct(rec.frames, rec.region_fn).render()];
  }
  for (const auto& [rendered, count] : profile) {
    ref.callstack_profile.push_back({rendered, count});
  }
  std::stable_sort(ref.callstack_profile.begin(), ref.callstack_profile.end(),
                   [](const auto& a, const auto& b) { return a.samples > b.samples; });

  std::map<unsigned long, orca::tool::RegionStats> regions;
  std::uint64_t fork_ticks = 0;
  bool fork_open = false;
  std::map<std::pair<int, int>, std::uint64_t> open;  // (tid, begin) -> tick
  std::map<std::pair<int, int>, orca::tool::IntervalStats> intervals;
  for (const auto& s : data.samples) {
    const auto event = static_cast<OMP_COLLECTORAPI_EVENT>(s.event);
    if (event == OMP_EVENT_FORK || event == OMP_EVENT_JOIN) {
      if (s.tid != 0) continue;
      if (event == OMP_EVENT_FORK) {
        fork_ticks = s.ticks;
        fork_open = true;
      } else if (fork_open) {
        fork_open = false;
        const double sec = counter.to_seconds(s.ticks - fork_ticks);
        auto& r = regions[s.region_id];
        if (r.invocations++ == 0) {
          r.region_id = s.region_id;
          r.min_seconds = r.max_seconds = sec;
        }
        r.total_seconds += sec;
        r.min_seconds = std::min(r.min_seconds, sec);
        r.max_seconds = std::max(r.max_seconds, sec);
      }
      continue;
    }
    if (orca::collector::is_begin_event(event)) {
      open[{s.tid, s.event}] = s.ticks;
      continue;
    }
    for (int b = 1; b < ORCA_EVENT_EXT_LAST; ++b) {
      if (orca::collector::matching_end(static_cast<OMP_COLLECTORAPI_EVENT>(b)) != event) {
        continue;
      }
      const auto it = open.find({s.tid, b});
      if (it == open.end()) break;
      auto& acc = intervals[{b, s.tid}];
      acc.begin_event = b;
      acc.tid = s.tid;
      ++acc.intervals;
      acc.total_seconds += counter.to_seconds(s.ticks - it->second);
      open.erase(it);
      break;
    }
  }
  for (const auto& [id, r] : regions) ref.regions.push_back(r);
  for (const auto& [key, acc] : intervals) ref.intervals.push_back(acc);
  return ref;
}

// finalize() interns raw stacks and pairs intervals per lane; on a single
// runtime its report must equal the record-at-a-time reference exactly.
TEST(Pipeline, FinalizeMatchesRecordAtATimeReference) {
  struct Arm {
    const char* name;
    bool region_fn;
    bool dedup;
    std::uint64_t sampling;
  };
  for (const Arm arm : {Arm{"plain", false, false, 1}, Arm{"region_fn", true, false, 1},
                        Arm{"dedup", true, true, 1}, Arm{"sampled", false, false, 3}}) {
    SCOPED_TRACE(arm.name);
    RuntimeConfig cfg;
    cfg.num_threads = 2;
    Runtime rt(cfg);
    Runtime::make_current(&rt);
    auto& tool = PrototypeCollector::instance();
    tool.reset();
    ToolOptions opts;
    opts.use_region_fn_extension = arm.region_fn;
    opts.dedup_by_context = arm.dedup;
    opts.callstack_sampling_interval = arm.sampling;
    ASSERT_TRUE(tool.attach(opts));
    orca::npb::NpbOptions bench;
    bench.num_threads = 2;
    bench.scale = 1.0;
    const auto result = orca::npb::run_lu(bench);
    rt.quiesce();
    tool.detach();
    Runtime::make_current(nullptr);

    const auto report = tool.finalize();
    const auto ref = reference_report(tool.trace_data(), orca::perf::HwTimeCounter(opts.counter));
    ASSERT_FALSE(ref.callstack_profile.empty());
    ASSERT_EQ(report.callstack_profile.size(), ref.callstack_profile.size());
    for (std::size_t i = 0; i < ref.callstack_profile.size(); ++i) {
      EXPECT_EQ(report.callstack_profile[i].rendered, ref.callstack_profile[i].rendered) << i;
      EXPECT_EQ(report.callstack_profile[i].samples, ref.callstack_profile[i].samples) << i;
    }
    ASSERT_EQ(report.regions.size(), ref.regions.size());
    std::uint64_t invocations = 0;
    for (std::size_t i = 0; i < ref.regions.size(); ++i) {
      const auto& got = report.regions[i];
      const auto& want = ref.regions[i];
      EXPECT_EQ(got.region_id, want.region_id);
      EXPECT_EQ(got.invocations, want.invocations);
      EXPECT_EQ(got.total_seconds, want.total_seconds);
      EXPECT_EQ(got.min_seconds, want.min_seconds);
      EXPECT_EQ(got.max_seconds, want.max_seconds);
      invocations += got.invocations;
    }
    EXPECT_EQ(invocations, result.region_calls);
    ASSERT_FALSE(ref.intervals.empty());
    ASSERT_EQ(report.intervals.size(), ref.intervals.size());
    for (std::size_t i = 0; i < ref.intervals.size(); ++i) {
      EXPECT_EQ(report.intervals[i].begin_event, ref.intervals[i].begin_event);
      EXPECT_EQ(report.intervals[i].tid, ref.intervals[i].tid);
      EXPECT_EQ(report.intervals[i].intervals, ref.intervals[i].intervals);
      EXPECT_EQ(report.intervals[i].total_seconds, ref.intervals[i].total_seconds);
    }
  }
}

TEST(Pipeline, MzPerRankCollectorsObserveAllRegions) {
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  tool.configure(ToolOptions{});

  orca::npb::MzOptions opts;
  opts.procs = 2;
  opts.threads_per_proc = 1;
  opts.scale = 0.05;
  opts.rank_begin = [](int) {
    orca::collector::Client client(&__omp_collector_api);
    client.start();
    client.register_event(OMP_EVENT_FORK, PrototypeCollector::raw_callback());
    client.register_event(OMP_EVENT_JOIN, PrototypeCollector::raw_callback());
  };
  opts.rank_end = [](int) {
    orca::collector::Client client(&__omp_collector_api);
    client.stop();
  };
  const auto result = orca::npb::run_lu_mz(opts);

  // Every region on every rank fired one FORK + one JOIN into the shared
  // tool store.
  const auto data = tool.trace_data();
  std::map<int, std::uint64_t> counts;
  for (const auto& s : data.samples) ++counts[s.event];
  EXPECT_EQ(counts[OMP_EVENT_FORK], result.total_calls);
  EXPECT_EQ(counts[OMP_EVENT_JOIN], result.total_calls);

  // Both rank masters carry gtid 0, yet each JOIN closes its own rank's
  // FORK and each join callstack is profiled once.
  const auto report = tool.finalize();
  std::uint64_t invocations = 0;
  for (const auto& r : report.regions) invocations += r.invocations;
  EXPECT_EQ(invocations, result.total_calls);
  std::uint64_t profiled = 0;
  for (const auto& e : report.callstack_profile) profiled += e.samples;
  EXPECT_EQ(profiled, result.total_calls);
}

}  // namespace
