/// Team-barrier torture tests: randomized team sizes, repeated
/// team-descriptor reuse (the runtime recycles one top-level
/// TeamDescriptor, so `init()` runs per region on warm state — where stale
/// episode counters would bite), oversubscription (threads ≫ cores), true
/// nested regions, and process-fork survival. The invariant checked
/// everywhere is the barrier contract itself: after crossing, every team
/// member observes all n phase arrivals.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <random>
#include <vector>

#include "runtime/runtime.hpp"
#include "translate/omp.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;

/// Run one parallel region of `n` threads × `phases` lockstep phases.
/// Each phase: count in, cross the barrier, verify all n arrivals are
/// visible, cross again so no thread races into the next phase's counter.
/// Returns true when no thread ever passed a barrier early. gtest-free on
/// purpose — the fork-survival test calls it from the child.
bool lockstep_ok(int n, int phases) {
  std::vector<std::atomic<int>> arrivals(static_cast<std::size_t>(phases));
  std::atomic<bool> ok{true};
  orca::omp::parallel(
      [&](int) {
        for (int p = 0; p < phases; ++p) {
          arrivals[static_cast<std::size_t>(p)].fetch_add(
              1, std::memory_order_relaxed);
          orca::omp::barrier();
          if (arrivals[static_cast<std::size_t>(p)].load(
                  std::memory_order_relaxed) != n) {
            ok.store(false, std::memory_order_relaxed);
          }
          orca::omp::barrier();
        }
      },
      n);
  return ok.load();
}

RuntimeConfig config(int num_threads) {
  RuntimeConfig cfg;
  cfg.num_threads = num_threads;
  return cfg;
}

TEST(BarrierTorture, RandomizedTeamSizes) {
  Runtime rt(config(4));
  Runtime::make_current(&rt);
  // Seeded: a failure reproduces. Sizes span serial (1) to heavily
  // oversubscribed (32 on however few cores CI has).
  std::mt19937 rng(20260809u);
  std::uniform_int_distribution<int> size_dist(1, 32);
  for (int region = 0; region < 30; ++region) {
    const int n = size_dist(rng);
    EXPECT_TRUE(lockstep_ok(n, 3)) << "region " << region << " size " << n;
  }
  Runtime::make_current(nullptr);
}

TEST(BarrierTorture, InitReuseAcrossShrinkAndGrow) {
  Runtime rt(config(4));
  Runtime::make_current(&rt);
  // Deterministic worst-case reuse pattern for generation/flag state:
  // serial regions interleaved with the extremes, on one recycled
  // TeamDescriptor whose barrier keeps its allocation across init()
  // calls. 4/5/6 and 20/21/22 straddle the tree's level boundaries
  // (1+4 and 1+4+16 nodes), where the last parent has a partial set of
  // children.
  for (const int n :
       {1, 32, 2, 17, 1, 8, 32, 3, 1, 16, 4, 5, 6, 1, 20, 21, 22, 5}) {
    EXPECT_TRUE(lockstep_ok(n, 4)) << "size " << n;
  }
  Runtime::make_current(nullptr);
}

TEST(BarrierTorture, OversubscribedLockstep) {
  Runtime rt(config(32));
  Runtime::make_current(&rt);
  // threads ≫ cores: every wait path (spin, yield, sleep escalation) is
  // exercised because the team cannot run simultaneously.
  for (int region = 0; region < 3; ++region) {
    EXPECT_TRUE(lockstep_ok(32, 3)) << "region " << region;
  }
  Runtime::make_current(nullptr);
}

TEST(BarrierTorture, NestedRegionsKeepLockstep) {
  RuntimeConfig cfg = config(3);
  cfg.nested = true;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  std::atomic<bool> ok{true};
  std::atomic<int> inner_teams{0};
  orca::omp::parallel(
      [&](int) {
        // Each outer member runs its own inner team; the inner lockstep
        // state lives on this outer thread's stack, so inner barriers are
        // verified independently per nested team.
        std::vector<std::atomic<int>> arrivals(4);
        constexpr int kInner = 2;
        orca::omp::parallel(
            [&](int) {
              for (int p = 0; p < 4; ++p) {
                arrivals[static_cast<std::size_t>(p)].fetch_add(
                    1, std::memory_order_relaxed);
                orca::omp::barrier();
                if (arrivals[static_cast<std::size_t>(p)].load(
                        std::memory_order_relaxed) != kInner) {
                  ok.store(false, std::memory_order_relaxed);
                }
                orca::omp::barrier();
              }
            },
            kInner);
        inner_teams.fetch_add(1, std::memory_order_relaxed);
      },
      3);
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(inner_teams.load(), 3);
  Runtime::make_current(nullptr);
}

TEST(BarrierTorture, SurvivesProcessFork) {
  // Same skip as process_fork_test's rearm case: the child rebuilds the
  // worker pool, and TSan forbids creating threads after a
  // multi-threaded fork (die_after_fork).
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan forbids creating threads after a multi-threaded "
                  "fork (die_after_fork); the child's pool rebuild does that";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "TSan forbids creating threads after a multi-threaded "
                  "fork (die_after_fork); the child's pool rebuild does that";
#endif
#endif
  Runtime rt(config(2));
  Runtime::make_current(&rt);
  ASSERT_TRUE(lockstep_ok(2, 2));  // pool warm before the fork

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: only the forking thread crossed; the pool rebuilds lazily on
    // the next region. The barrier (warm generation state) must still
    // uphold lockstep. _exit is the only sanctioned way out of a forked
    // multithreaded process.
    ::_exit(lockstep_ok(2, 2) ? 0 : 1);
  }
  // Parent: collection and synchronization continue unperturbed.
  EXPECT_TRUE(lockstep_ok(2, 2));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  Runtime::make_current(nullptr);
}

}  // namespace
