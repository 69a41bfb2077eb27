/// Callstack capture, symbolization, and user-model reconstruction tests
/// (the libunwind/BFD substitute of paper Sec. IV-F).
#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "translate/omp.hpp"
#include "translate/region_registry.hpp"
#include "unwind/backtrace.hpp"
#include "unwind/symbolize.hpp"
#include "unwind/user_model.hpp"

namespace {

using namespace orca::unwind;

__attribute__((noinline)) Callstack capture_here() {
  return Callstack::capture();
}

__attribute__((noinline)) Callstack deeper(int depth) {
  if (depth > 0) {
    Callstack cs = deeper(depth - 1);
    // Prevent tail-call folding of the recursion.
    EXPECT_LE(cs.depth(), kMaxFrames);
    return cs;
  }
  return capture_here();
}

TEST(Backtrace, CaptureSeesCallers) {
  const Callstack cs = capture_here();
  ASSERT_GT(cs.depth(), 1u);
  // Frame 0 should be inside this test binary, not the capture machinery.
  const SymbolInfo top = symbolize(cs.frame(0));
  EXPECT_NE(top.resolution, Resolution::kUnknown);
}

TEST(Backtrace, DepthGrowsWithRecursion) {
  const Callstack shallow = deeper(0);
  const Callstack deep = deeper(10);
  EXPECT_GT(deep.depth(), shallow.depth());
}

struct SkipPair {
  Callstack full;
  Callstack skipped;
};

__attribute__((noinline)) SkipPair capture_pair(int depth) {
  if (depth > 0) {
    SkipPair pair = capture_pair(depth - 1);
    EXPECT_LE(pair.full.depth(), kMaxFrames);  // no tail-call folding
    return pair;
  }
  return {Callstack::capture(0), Callstack::capture(1)};
}

TEST(Backtrace, SkipDropsInnermostFrames) {
  // Captured a few frames below the test body: gtest's own frames have no
  // frame pointers, so a walk ends at the return address into gtest.
  const auto [full, skipped] = capture_pair(3);
  ASSERT_GT(full.depth(), 2u);
  // Frame 0 of capture(0) is the return address into capture_pair, one per
  // call site, so the two captures differ there. capture(1) drops it: its
  // frame 0 is the return address into capture_pair's caller, and from
  // there on both walks read the same frame records.
  EXPECT_EQ(skipped.depth() + 1, full.depth());
  for (std::size_t i = 0; i < skipped.depth(); ++i) {
    EXPECT_EQ(skipped.frame(i), full.frame(i + 1)) << "frame " << i;
  }
}

TEST(Backtrace, RecursionDeeperThanTheCapIsCapped) {
  const Callstack cs = deeper(static_cast<int>(kMaxFrames) + 16);
  EXPECT_EQ(cs.depth(), kMaxFrames);
  for (std::size_t i = 0; i < cs.depth(); ++i) EXPECT_NE(cs.frame(i), nullptr);
}

TEST(Backtrace, CapturesOnPoolWorkerThreads) {
  orca::rt::RuntimeConfig cfg;
  cfg.num_threads = 3;
  orca::rt::Runtime rt(cfg);
  orca::rt::Runtime::make_current(&rt);
  std::mutex mu;
  std::vector<Callstack> stacks;
  for (int round = 0; round < 4; ++round) {
    orca::omp::parallel([&](int) {
      const Callstack cs = capture_here();
      std::scoped_lock lk(mu);
      stacks.push_back(cs);
    }, 3);
  }
  orca::rt::Runtime::make_current(nullptr);
  ASSERT_EQ(stacks.size(), 12u);
  for (const Callstack& cs : stacks) {
    // capture_here's caller (the region body) and its callers in the
    // runtime's fork or worker loop all have frame records.
    ASSERT_GE(cs.depth(), 3u);
    EXPECT_EQ(symbolize(cs.frame(0)).module, symbolize(cs.frame(1)).module);
    bool runtime_frame = false;
    for (std::size_t i = 0; i < cs.depth(); ++i) {
      ASSERT_NE(cs.frame(i), nullptr);
      runtime_frame = runtime_frame || is_runtime_frame(symbolize(cs.frame(i)));
    }
    EXPECT_TRUE(runtime_frame);
  }
}

// libc's qsort is built without frame pointers: the walk from inside the
// comparator reads its caller's frame-pointer register as left by libc.
Callstack g_in_comparator;

__attribute__((noinline)) int compare_and_capture(const void* a,
                                                  const void* b) {
  g_in_comparator = Callstack::capture();
  const int x = *static_cast<const int*>(a);
  const int y = *static_cast<const int*>(b);
  return (x > y) - (x < y);
}

TEST(Backtrace, WalkThroughFrameWithoutFramePointerEndsCleanly) {
  int values[] = {5, 3, 9, 1, 7, 2, 8};
  std::qsort(values, std::size(values), sizeof(int), &compare_and_capture);
  EXPECT_EQ(values[0], 1);
  const Callstack& cs = g_in_comparator;
  ASSERT_GE(cs.depth(), 2u);
  EXPECT_LE(cs.depth(), kMaxFrames);
  // Frame 0 lies in the comparator; frame 1 is the return address into
  // libc's sort routine, read from the comparator's own frame record.
  const SymbolInfo caller = symbolize(cs.frame(1));
  EXPECT_NE(caller.module.find("libc"), std::string::npos) << caller.pretty();
  for (std::size_t i = 0; i < cs.depth(); ++i) {
    EXPECT_NE(cs.frame(i), nullptr);
    (void)symbolize(cs.frame(i));  // whatever the walk kept is safe to map
  }
}

TEST(Backtrace, ToVectorCopiesFramesNotIterators) {
  // Regression: braced-init once turned this into a 2-element vector of
  // iterator addresses (stack pointers).
  const Callstack cs = capture_here();
  const auto vec = cs.to_vector();
  ASSERT_EQ(vec.size(), cs.depth());
  for (std::size_t i = 0; i < vec.size(); ++i) {
    EXPECT_EQ(vec[i], cs.frame(i));
  }
}

TEST(Backtrace, OutOfRangeFrameIsNull) {
  const Callstack cs = capture_here();
  EXPECT_EQ(cs.frame(cs.depth()), nullptr);
  EXPECT_EQ(cs.frame(9999), nullptr);
}

TEST(Symbolize, RegionRegistryHitIsExact) {
  const int anchor = 0;
  orca::translate::RegionRegistry::instance().add(
      &anchor, {"my_func", "my_file.cpp", 42, "parallel for"});
  const SymbolInfo info = symbolize(&anchor);
  EXPECT_EQ(info.resolution, Resolution::kRegion);
  EXPECT_EQ(info.file, "my_file.cpp");
  EXPECT_EQ(info.line, 42u);
  EXPECT_NE(info.symbol.find("parallel for"), std::string::npos);
  EXPECT_NE(info.pretty().find("my_file.cpp:42"), std::string::npos);
}

TEST(Symbolize, DynamicSymbolResolvesWithName) {
  // A libc function always has a dynamic symbol.
  const SymbolInfo info =
      symbolize(reinterpret_cast<const void*>(&std::strtol));
  EXPECT_EQ(info.resolution, Resolution::kSymbol);
  EXPECT_FALSE(info.symbol.empty());
  EXPECT_FALSE(info.module.empty());
}

TEST(Symbolize, NullAndGarbageAreSafe) {
  EXPECT_EQ(symbolize(nullptr).resolution, Resolution::kUnknown);
  const SymbolInfo garbage =
      symbolize(reinterpret_cast<const void*>(0x1000));
  // Must not crash; resolution may be module or unknown.
  EXPECT_TRUE(garbage.resolution == Resolution::kUnknown ||
              garbage.resolution == Resolution::kModule);
}

TEST(Symbolize, Demangle) {
  EXPECT_EQ(demangle("_Z3foov"), "foo()");
  EXPECT_EQ(demangle("not_mangled"), "not_mangled");
  EXPECT_EQ(demangle(""), "");
}

TEST(Symbolize, RuntimeFrameClassification) {
  SymbolInfo runtime_frame;
  runtime_frame.resolution = Resolution::kSymbol;
  runtime_frame.symbol = "orca::rt::Runtime::fork(void (*)(int, void*), void*, int)";
  EXPECT_TRUE(is_runtime_frame(runtime_frame));

  runtime_frame.symbol = "__ompc_fork";
  EXPECT_TRUE(is_runtime_frame(runtime_frame));

  SymbolInfo user_frame;
  user_frame.resolution = Resolution::kSymbol;
  user_frame.symbol = "app::solver()";
  EXPECT_FALSE(is_runtime_frame(user_frame));

  SymbolInfo region_frame;
  region_frame.resolution = Resolution::kRegion;
  region_frame.symbol = "parallel in orca::rt::something";  // region hits
  EXPECT_FALSE(is_runtime_frame(region_frame));             // never stripped
}

TEST(UserModel, StripsRuntimeFramesAndPlantsRegion) {
  // Fabricate an implementation-model stack: [runtime, user, runtime,
  // user] plus a region function known to the registry.
  const int region_anchor = 0;
  orca::translate::RegionRegistry::instance().add(
      &region_anchor, {"solver", "app.cpp", 7, "parallel"});

  // Use real resolvable addresses for the "user" frames.
  const void* user1 = reinterpret_cast<const void*>(&std::strtol);
  const void* user2 = reinterpret_cast<const void*>(&std::strtod);
  // Runtime frame: a function from orca::rt (resolves via dynamic symbols
  // thanks to -rdynamic).
  const void* rt_frame =
      reinterpret_cast<const void*>(&orca::rt::Runtime::global);

  const UserCallstack user =
      reconstruct({rt_frame, user1, rt_frame, user2}, &region_anchor);
  ASSERT_GE(user.frames.size(), 3u);
  EXPECT_EQ(user.frames[0].resolution, Resolution::kRegion);
  EXPECT_EQ(user.frames[0].file, "app.cpp");
  for (const SymbolInfo& f : user.frames) {
    EXPECT_FALSE(is_runtime_frame(f)) << f.pretty();
  }
  const std::string rendered = user.render();
  EXPECT_NE(rendered.find("app.cpp:7"), std::string::npos);
}

TEST(UserModel, WithoutRegionFnKeepsUserFramesOnly) {
  const void* user1 = reinterpret_cast<const void*>(&std::strtol);
  const UserCallstack user = reconstruct({user1}, nullptr);
  ASSERT_EQ(user.frames.size(), 1u);
  EXPECT_EQ(user.frames[0].address, user1);
}

TEST(UserModel, EmptyInput) {
  const UserCallstack user = reconstruct({}, nullptr);
  EXPECT_TRUE(user.frames.empty());
  EXPECT_TRUE(user.render().empty());
}

}  // namespace
