/// Fleet-session integration tests (ctest label: fleet). The acceptance
/// scenario from docs/FLEET.md: orcamon attaches to three instrumented
/// processes, one is SIGKILLed mid-run, and the daemon still produces a
/// merged Perfetto trace with all three process tracks, a fleet report
/// with honest per-producer loss books, and a salvaged crash section for
/// the killed producer — while the two survivors detach cleanly under
/// load.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet_session.hpp"
#include "runtime/runtime.hpp"
#include "shm/exporter.hpp"
#include "tool/orcamon/fleet_monitor.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::testing::FleetSession;
using orca::tool::orcamon::FleetMonitor;
using orca::tool::orcamon::MonitorOptions;
using orca::tool::orcamon::ProducerInfo;

void burn_region(int, void*) {
  volatile double x = 0;
  for (int i = 0; i < 2000; ++i) x = x + i;
}

/// Child body: export through shm and run parallel regions until the stop
/// file appears (or a failsafe cap runs out). Clean children delete the
/// runtime (finalized segment); the victim never gets that far.
[[noreturn]] void producer_child(const std::string& prefix,
                                 const std::string& stop_file) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.max_threads = 4;
  cfg.shm_export = true;
  cfg.shm_prefix = prefix;
  cfg.shm_ring_capacity = 1024;
  cfg.shm_heartbeat_ms = 10;
  auto* rt = new Runtime(cfg);
  Runtime::make_current(rt);
  if (!orca::shm::export_armed()) _exit(10);

  // 60s failsafe so a parent bug can never hang the suite.
  for (int i = 0; i < 60000; ++i) {
    rt->fork(&burn_region, nullptr, 2);
    if (::access(stop_file.c_str(), F_OK) == 0) break;
    ::usleep(1000);
  }
  delete rt;  // clean shutdown: finalize + unlink the segment
  _exit(0);
}

TEST(FleetMonitor, ThreeProducersOneKilledMidRun) {
  const std::string trace_file =
      "fleet_monitor_trace." + std::to_string(::getpid()) + ".json";
  std::remove(trace_file.c_str());
  FleetSession session("orcafleet-" + std::to_string(::getpid()),
                       "fleet_monitor_stop." + std::to_string(::getpid()));

  // Fork the fleet before this process grows any threads.
  for (int i = 0; i < 3; ++i) {
    ASSERT_GT(session.fork_producer(&producer_child), 0);
  }
  const std::vector<pid_t> kids = session.children();
  const pid_t victim = kids[2];

  MonitorOptions opts;
  opts.prefix = session.prefix();
  opts.shards = 3;
  opts.poll_ms = 1;
  opts.discover_ms = 20;
  opts.report_interval_s = 0;
  opts.trace_out = trace_file;
  opts.report_out = "fleet_monitor_report." + std::to_string(::getpid());
  opts.exit_when_idle = true;
  opts.liveness_grace = 4;
  FleetMonitor& monitor = session.start_monitor(opts);

  // Wait until all three producers attached and real work flowed through
  // the merged pipeline, then kill one mid-run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((monitor.attached_count() < 3 || monitor.events_seen() < 200) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(monitor.attached_count(), 3u);
  ASSERT_GE(monitor.events_seen(), 200u);

  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // Tell the survivors to finish cleanly (detach under load).
  session.stop_producers();

  int status = 0;
  ASSERT_TRUE(session.reap(kids[0], &status));
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(session.reap(kids[1], &status));
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(session.reap(victim, &status));
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // exit_when_idle: the monitor winds down once every producer finalized
  // or died and their rings are drained.
  session.join_monitor();

  const std::vector<ProducerInfo> fleet = monitor.producers();
  ASSERT_EQ(fleet.size(), 3u);
  int dead = 0, finalized = 0;
  for (const ProducerInfo& p : fleet) {
    EXPECT_TRUE(p.drained) << "pid " << p.pid;
    // Honest loss books: once drained, every produced record is either
    // read or accounted as lost — for the SIGKILLed producer too.
    EXPECT_EQ(p.produced, p.read + p.lost) << "pid " << p.pid;
    EXPECT_GT(p.read, 0u) << "pid " << p.pid;
    if (p.dead) {
      ++dead;
      EXPECT_EQ(p.pid, static_cast<std::int64_t>(victim));
      // Salvaged crash section: the rolling snapshot, first written
      // before the segment was named, survives SIGKILL, where no
      // in-process handler can run.
      EXPECT_EQ(p.salvage.kind, orca::shm::kCrashSnapshot);
      EXPECT_NE(p.salvage.text.find("events_published"), std::string::npos);
      EXPECT_NE(p.salvage.text.find("beats"), std::string::npos);
    } else {
      EXPECT_TRUE(p.finalized) << "pid " << p.pid;
      ++finalized;
    }
  }
  EXPECT_EQ(dead, 1);
  EXPECT_EQ(finalized, 2);

  // The dead producer's segment was reaped; the fleet stayed clean.
  EXPECT_TRUE(orca::shm::discover_segments(session.prefix()).empty());

  // Merged Perfetto trace: every process track present.
  std::ifstream in(trace_file);
  ASSERT_TRUE(in.good()) << "no trace at " << trace_file;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("parallel region"), std::string::npos);
  for (const pid_t pid : kids) {
    EXPECT_NE(trace.find("\"pid\":" + std::to_string(pid)),
              std::string::npos)
        << "trace lost process " << pid;
  }

  // Fleet report: totals, states, and the crash section called out.
  const std::string report = monitor.render_report();
  EXPECT_NE(report.find("3 producer(s)"), std::string::npos);
  EXPECT_NE(report.find("1 dead"), std::string::npos);
  EXPECT_NE(report.find("crash section (snapshot"), std::string::npos);
  EXPECT_NE(report.find("parallel-region durations"), std::string::npos);

  std::remove(trace_file.c_str());
  std::remove(opts.report_out.c_str());
}

TEST(FleetMonitor, EmptyFleetHonoursDuration) {
  MonitorOptions opts;
  opts.prefix = "orcafleet-none-" + std::to_string(::getpid());
  opts.duration_s = 0.2;
  opts.report_interval_s = 0;
  opts.report_out = "/dev/null";
  FleetMonitor monitor(opts);
  EXPECT_EQ(monitor.run(), 0u);
  EXPECT_EQ(monitor.events_seen(), 0u);
}

}  // namespace
