/// Nested-parallelism tests for the "future releases" behaviour the paper
/// sketches (Sec. IV-C1 / IV-E): with nesting enabled, nested regions get
/// real teams, their own fork/join events, and parent-region-id tracking;
/// with nesting disabled (the OpenUH default) they serialize silently.
/// Also covers `sections` and the extended user API.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "collector/message.hpp"
#include "runtime/ompc_api.h"
#include "runtime/runtime.hpp"
#include "translate/omp.hpp"

namespace {

using orca::collector::MessageBuilder;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;

std::atomic<int> g_forks{0};
void fork_counter(OMP_COLLECTORAPI_EVENT e) {
  if (e == OMP_EVENT_FORK) g_forks.fetch_add(1);
}

TEST(Nested, SerializedModeFiresNoNestedForkEvents) {
  // Paper IV-C1: "Our compiler currently serializes nested parallel
  // regions and because of this, we do not trigger a fork event for
  // nested parallel regions."
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  MessageBuilder msg;
  msg.add(OMP_REQ_START);
  msg.add_register(OMP_EVENT_FORK, &fork_counter);
  ASSERT_EQ(rt.collector_api(msg.buffer()), 0);
  g_forks = 0;

  orca::omp::parallel([&](int) {
    orca::omp::parallel([](int) {});  // serialized: no fork event
  }, 2);
  rt.quiesce();
  EXPECT_EQ(g_forks.load(), 1);  // only the outer region forked
  MessageBuilder stop;
  stop.add(OMP_REQ_STOP);
  rt.collector_api(stop.buffer());
  Runtime::make_current(nullptr);
}

TEST(Nested, NestedModeFiresForkPerNestedRegion) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.nested = true;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  MessageBuilder msg;
  msg.add(OMP_REQ_START);
  msg.add_register(OMP_EVENT_FORK, &fork_counter);
  ASSERT_EQ(rt.collector_api(msg.buffer()), 0);
  g_forks = 0;

  orca::omp::parallel([&](int) {
    orca::omp::parallel([](int) {});
  }, 2);
  rt.quiesce();
  // Outer fork + one nested fork per outer thread.
  EXPECT_EQ(g_forks.load(), 3);
  MessageBuilder stop;
  stop.add(OMP_REQ_STOP);
  rt.collector_api(stop.buffer());
  Runtime::make_current(nullptr);
}

TEST(Nested, ParentRegionIdTracksEnclosingRegion) {
  // Paper IV-E: "In the case of a nested parallel region, it will return
  // the current parallel region ID of the parent team."
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.nested = true;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  std::atomic<unsigned long> outer_id{0};
  std::atomic<unsigned long> inner_parent{999};
  std::atomic<unsigned long> inner_id{0};

  orca::omp::parallel([&](int) {
    if (omp_get_thread_num() != 0) return;
    MessageBuilder outer_q;
    outer_q.add_id_query(OMP_REQ_CURRENT_PRID);
    rt.collector_api(outer_q.buffer());
    unsigned long oid = 0;
    outer_q.reply_value(0, &oid);
    outer_id.store(oid);

    orca::omp::parallel([&](int) {
      if (omp_get_thread_num() != 0) return;
      MessageBuilder inner_q;
      inner_q.add_id_query(OMP_REQ_CURRENT_PRID);
      inner_q.add_id_query(OMP_REQ_PARENT_PRID);
      rt.collector_api(inner_q.buffer());
      unsigned long iid = 0;
      unsigned long pid = 0;
      inner_q.reply_value(0, &iid);
      inner_q.reply_value(1, &pid);
      inner_id.store(iid);
      inner_parent.store(pid);
    }, 2);
  }, 2);

  EXPECT_NE(inner_id.load(), outer_id.load());
  EXPECT_EQ(inner_parent.load(), outer_id.load());
  Runtime::make_current(nullptr);
}

TEST(Nested, SerializedInnerKeepsOuterRegionId) {
  // Serialized nesting (the OpenUH default) does not track nested ids:
  // queries inside the serialized inner region still report the outer
  // region (paper IV-E: "we don't keep track of these IDs because our
  // compiler currently serializes them").
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  std::atomic<unsigned long> outer_id{0};
  std::atomic<unsigned long> inner_seen{0};
  orca::omp::parallel([&](int) {
    if (omp_get_thread_num() != 0) return;
    MessageBuilder q;
    q.add_id_query(OMP_REQ_CURRENT_PRID);
    rt.collector_api(q.buffer());
    unsigned long id = 0;
    q.reply_value(0, &id);
    outer_id.store(id);

    orca::omp::parallel([&](int) {
      MessageBuilder iq;
      iq.add_id_query(OMP_REQ_CURRENT_PRID);
      rt.collector_api(iq.buffer());
      unsigned long iid = 0;
      iq.reply_value(0, &iid);
      inner_seen.store(iid);
    });
  }, 2);
  EXPECT_EQ(inner_seen.load(), outer_id.load());
  Runtime::make_current(nullptr);
}

TEST(Sections, EachBlockRunsExactlyOnce) {
  RuntimeConfig cfg;
  cfg.num_threads = 3;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  std::vector<std::atomic<int>> hits(5);
  orca::omp::parallel([&](int) {
    orca::omp::sections({
        [&] { hits[0].fetch_add(1); },
        [&] { hits[1].fetch_add(1); },
        [&] { hits[2].fetch_add(1); },
        [&] { hits[3].fetch_add(1); },
        [&] { hits[4].fetch_add(1); },
    });
  }, 3);
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(hits[static_cast<std::size_t>(s)].load(), 1) << "section " << s;
  }
  Runtime::make_current(nullptr);
}

TEST(Sections, MoreSectionsThanThreadsAndViceVersa) {
  RuntimeConfig cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  std::atomic<int> count{0};
  orca::omp::parallel([&](int) {
    orca::omp::sections({[&] { count.fetch_add(1); }});  // 1 section, 4 thr
  }, 4);
  EXPECT_EQ(count.load(), 1);
  orca::omp::parallel([&](int) {
    std::vector<std::function<void()>> blocks;
    for (int s = 0; s < 10; ++s) {
      blocks.push_back([&] { count.fetch_add(1); });
    }
    orca::omp::sections(blocks);  // 10 sections, 2 threads
  }, 2);
  EXPECT_EQ(count.load(), 11);
  Runtime::make_current(nullptr);
}

TEST(UserApi, NestedAndTimingExtensions) {
  RuntimeConfig cfg;
  Runtime rt(cfg);
  Runtime::make_current(&rt);
  EXPECT_EQ(omp_get_nested(), 0);
  omp_set_nested(1);
  EXPECT_EQ(omp_get_nested(), 1);
  omp_set_nested(0);
  EXPECT_GT(omp_get_wtick(), 0.0);
  EXPECT_LT(omp_get_wtick(), 1.0);
  EXPECT_EQ(omp_get_dynamic(), 0);
  omp_set_dynamic(1);           // accepted, ignored
  EXPECT_EQ(omp_get_dynamic(), 0);
  Runtime::make_current(nullptr);
}

TEST(Guided, ChunksShrinkMonotonically) {
  // Property of the guided schedule: successive grabs never grow (until
  // the floor), and they cover the range exactly.
  RuntimeConfig cfg;
  cfg.num_threads = 1;  // single thread: the grab sequence is deterministic
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  std::vector<long long> chunk_sizes;
  orca::omp::parallel([&](int) {
    const int gtid = __ompc_get_global_thread_num();
    __ompc_scheduler_init_8(gtid, ORCA_SCHED_GUIDED, 0, 9999, 1, 1);
    long long lo = 0;
    long long hi = 0;
    while (__ompc_schedule_next_8(gtid, &lo, &hi) != 0) {
      chunk_sizes.push_back(hi - lo + 1);
    }
  }, 1);

  ASSERT_GT(chunk_sizes.size(), 3u);
  long long covered = 0;
  for (std::size_t i = 0; i < chunk_sizes.size(); ++i) {
    covered += chunk_sizes[i];
    if (i > 0) {
      EXPECT_LE(chunk_sizes[i], chunk_sizes[i - 1]) << i;
    }
  }
  EXPECT_EQ(covered, 10000);
  EXPECT_GT(chunk_sizes.front(), chunk_sizes.back());
  Runtime::make_current(nullptr);
}

}  // namespace
