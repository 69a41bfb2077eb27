/// E9 — costs of the PerfSuite/libpsx extensions (paper Sec. IV-F):
/// callstack capture at a join event (depth 80 exceeds kMaxFrames),
/// instruction-pointer symbolization (region hit vs. dynamic-symbol vs.
/// unknown), and offline user-model reconstruction, per record and as the
/// interned profile the tool's finalize builds.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "perf/psx.h"
#include "translate/region_registry.hpp"
#include "unwind/backtrace.hpp"
#include "unwind/symbolize.hpp"
#include "unwind/user_model.hpp"

namespace {

/// Build some genuine stack depth before capturing.
__attribute__((noinline)) orca::unwind::Callstack capture_at_depth(int depth) {
  if (depth > 0) {
    benchmark::ClobberMemory();
    return capture_at_depth(depth - 1);
  }
  return orca::unwind::Callstack::capture();
}

void BM_CallstackCapture(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(capture_at_depth(depth).depth());
  }
}
BENCHMARK(BM_CallstackCapture)->Arg(4)->Arg(16)->Arg(48)->Arg(80);

void BM_PsxCallstackGet(benchmark::State& state) {
  const void* frames[64];
  for (auto _ : state) {
    benchmark::DoNotOptimize(psx_callstack_get(frames, 64, 0));
  }
}
BENCHMARK(BM_PsxCallstackGet);

void BM_Symbolize_RegionHit(benchmark::State& state) {
  // A registered outlined-region address: the exact-match fast path.
  const int dummy = 0;
  orca::translate::RegionRegistry::instance().add(
      &dummy, {"bench_fn", "bench.cpp", 42, "parallel"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(orca::unwind::symbolize(&dummy));
  }
}
BENCHMARK(BM_Symbolize_RegionHit);

void BM_Symbolize_Dladdr(benchmark::State& state) {
  // A dynamic symbol (from libc): the BFD-equivalent lookup.
  const void* addr = reinterpret_cast<const void*>(&std::printf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orca::unwind::symbolize(addr));
  }
}
BENCHMARK(BM_Symbolize_Dladdr);

void BM_Symbolize_Unknown(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        orca::unwind::symbolize(reinterpret_cast<const void*>(0x10)));
  }
}
BENCHMARK(BM_Symbolize_Unknown);

void BM_UserModelReconstruct(benchmark::State& state) {
  // A realistic join-time stack snapshot, reconstructed offline per sample.
  const auto raw = orca::unwind::Callstack::capture().to_vector();
  for (auto _ : state) {
    benchmark::DoNotOptimize(orca::unwind::reconstruct(raw, nullptr));
  }
  state.SetLabel("frames=" + std::to_string(raw.size()));
}
BENCHMARK(BM_UserModelReconstruct);

void BM_InternedProfile(benchmark::State& state) {
  // N join records over K distinct stacks, tallied and reconstructed the
  // way PrototypeCollector::finalize does: each distinct stack once.
  const auto records = static_cast<std::size_t>(state.range(0));
  const auto distinct = static_cast<int>(state.range(1));
  std::vector<orca::unwind::Callstack> stacks;
  for (int k = 0; k < distinct; ++k) stacks.push_back(capture_at_depth(k));
  for (auto _ : state) {
    orca::unwind::StackTally tally;
    for (std::size_t i = 0; i < records; ++i) {
      tally.add(nullptr, stacks[i % stacks.size()].frames());
    }
    benchmark::DoNotOptimize(tally.profile());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records));
  state.SetLabel("records=" + std::to_string(records) +
                 " stacks=" + std::to_string(distinct));
}
BENCHMARK(BM_InternedProfile)->Args({30000, 8})->Args({30000, 64});

void BM_PsxTimerRead(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(psx_timer_read());
  }
}
BENCHMARK(BM_PsxTimerRead);

}  // namespace

BENCHMARK_MAIN();
