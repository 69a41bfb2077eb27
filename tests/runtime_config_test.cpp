/// ICV/configuration tests: OMP_SCHEDULE parsing, environment intake, and
/// clamping rules.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "runtime/config.hpp"

namespace {

using orca::rt::RuntimeConfig;
using orca::rt::Schedule;
using orca::rt::ScheduleSpec;

TEST(ScheduleParse, KindsAndChunks) {
  ScheduleSpec spec = RuntimeConfig::parse_schedule("dynamic,4");
  EXPECT_EQ(spec.kind, Schedule::kDynamic);
  EXPECT_EQ(spec.chunk, 4);

  spec = RuntimeConfig::parse_schedule("guided");
  EXPECT_EQ(spec.kind, Schedule::kGuided);
  EXPECT_EQ(spec.chunk, 0);

  spec = RuntimeConfig::parse_schedule("static");
  EXPECT_EQ(spec.kind, Schedule::kStaticEven);

  spec = RuntimeConfig::parse_schedule("static,16");
  EXPECT_EQ(spec.kind, Schedule::kStaticChunked);
  EXPECT_EQ(spec.chunk, 16);

  spec = RuntimeConfig::parse_schedule("DYNAMIC , 8");
  EXPECT_EQ(spec.kind, Schedule::kDynamic);
  EXPECT_EQ(spec.chunk, 8);
}

TEST(ScheduleParse, GarbageFallsBackToStatic) {
  EXPECT_EQ(RuntimeConfig::parse_schedule("").kind, Schedule::kStaticEven);
  EXPECT_EQ(RuntimeConfig::parse_schedule("bogus,4").kind,
            Schedule::kStaticEven);
  EXPECT_EQ(RuntimeConfig::parse_schedule("dynamic,notanumber").chunk, 0);
  EXPECT_EQ(RuntimeConfig::parse_schedule("dynamic,-5").chunk, 0);
}

TEST(ConfigFromEnv, ReadsIcvs) {
  ::setenv("OMP_NUM_THREADS", "6", 1);
  ::setenv("OMP_NESTED", "true", 1);
  ::setenv("OMP_SCHEDULE", "guided,2", 1);
  ::setenv("ORCA_ATOMIC_EVENTS", "1", 1);
  ::setenv("ORCA_PER_THREAD_QUEUES", "0", 1);

  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.num_threads, 6);
  EXPECT_TRUE(cfg.nested);
  EXPECT_TRUE(cfg.atomic_events);
  EXPECT_FALSE(cfg.per_thread_queues);
  EXPECT_EQ(cfg.runtime_schedule.kind, Schedule::kGuided);
  EXPECT_EQ(cfg.runtime_schedule.chunk, 2);

  ::unsetenv("OMP_NUM_THREADS");
  ::unsetenv("OMP_NESTED");
  ::unsetenv("OMP_SCHEDULE");
  ::unsetenv("ORCA_ATOMIC_EVENTS");
  ::unsetenv("ORCA_PER_THREAD_QUEUES");
}

TEST(ConfigFromEnv, ClampsInsaneValues) {
  ::setenv("OMP_NUM_THREADS", "-3", 1);
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_GE(cfg.num_threads, 1);
  ::unsetenv("OMP_NUM_THREADS");

  ::setenv("OMP_NUM_THREADS", "100", 1);
  ::setenv("OMP_THREAD_LIMIT", "8", 1);
  const RuntimeConfig capped = RuntimeConfig::from_env();
  EXPECT_GE(capped.max_threads, capped.num_threads);
  ::unsetenv("OMP_NUM_THREADS");
  ::unsetenv("OMP_THREAD_LIMIT");
}

TEST(TelemetryMode, ParsesEveryKeyword) {
  bool timeline = true;
  bool metrics = true;
  EXPECT_TRUE(RuntimeConfig::parse_telemetry_mode("off", &timeline, &metrics));
  EXPECT_FALSE(timeline);
  EXPECT_FALSE(metrics);
  EXPECT_TRUE(RuntimeConfig::parse_telemetry_mode("none", &timeline, &metrics));
  EXPECT_TRUE(RuntimeConfig::parse_telemetry_mode("0", &timeline, &metrics));

  EXPECT_TRUE(
      RuntimeConfig::parse_telemetry_mode("metrics", &timeline, &metrics));
  EXPECT_FALSE(timeline);
  EXPECT_TRUE(metrics);

  EXPECT_TRUE(
      RuntimeConfig::parse_telemetry_mode("timeline", &timeline, &metrics));
  EXPECT_TRUE(timeline);
  EXPECT_FALSE(metrics);

  for (const char* full : {"full", "on", "1"}) {
    timeline = metrics = false;
    EXPECT_TRUE(RuntimeConfig::parse_telemetry_mode(full, &timeline, &metrics))
        << full;
    EXPECT_TRUE(timeline) << full;
    EXPECT_TRUE(metrics) << full;
  }
}

TEST(TelemetryMode, RejectsGarbageLeavingFlagsUntouched) {
  bool timeline = true;
  bool metrics = false;
  EXPECT_FALSE(
      RuntimeConfig::parse_telemetry_mode("bogus", &timeline, &metrics));
  EXPECT_TRUE(timeline);   // untouched on failure
  EXPECT_FALSE(metrics);
  EXPECT_FALSE(RuntimeConfig::parse_telemetry_mode("", &timeline, &metrics));
  EXPECT_FALSE(
      RuntimeConfig::parse_telemetry_mode("FULL ", &timeline, &metrics));
}

TEST(ConfigFromEnv, ReadsTelemetryKnobs) {
  ::setenv("ORCA_TELEMETRY", "full", 1);
  ::setenv("ORCA_TELEMETRY_RING", "8192", 1);
  ::setenv("ORCA_TELEMETRY_REPORT", "stderr", 1);
  ::setenv("ORCA_TELEMETRY_TRACE", "/tmp/trace.json", 1);

  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_TRUE(cfg.telemetry_timeline);
  EXPECT_TRUE(cfg.telemetry_metrics);
  EXPECT_EQ(cfg.telemetry_ring_capacity, 8192u);
  EXPECT_EQ(cfg.telemetry_report, "stderr");
  EXPECT_EQ(cfg.telemetry_trace, "/tmp/trace.json");

  ::setenv("ORCA_TELEMETRY", "metrics", 1);
  const RuntimeConfig metrics_only = RuntimeConfig::from_env();
  EXPECT_FALSE(metrics_only.telemetry_timeline);
  EXPECT_TRUE(metrics_only.telemetry_metrics);

  ::unsetenv("ORCA_TELEMETRY");
  ::unsetenv("ORCA_TELEMETRY_RING");
  ::unsetenv("ORCA_TELEMETRY_REPORT");
  ::unsetenv("ORCA_TELEMETRY_TRACE");
}

TEST(ConfigFromEnv, WarnsAndDefaultsOnBadTelemetryValues) {
  // Invalid mode: telemetry stays off (the default), run continues.
  ::setenv("ORCA_TELEMETRY", "everything", 1);
  const RuntimeConfig bad_mode = RuntimeConfig::from_env();
  EXPECT_FALSE(bad_mode.telemetry_timeline);
  EXPECT_FALSE(bad_mode.telemetry_metrics);
  ::unsetenv("ORCA_TELEMETRY");

  // Invalid ring sizes: keep the compiled-in default capacity.
  const std::size_t fallback = RuntimeConfig().telemetry_ring_capacity;
  for (const char* bad : {"0", "-64", "huge", "4k", ""}) {
    ::setenv("ORCA_TELEMETRY_RING", bad, 1);
    const RuntimeConfig cfg = RuntimeConfig::from_env();
    EXPECT_EQ(cfg.telemetry_ring_capacity, fallback) << bad;
  }
  ::unsetenv("ORCA_TELEMETRY_RING");
}

TEST(ConfigDefaults, TelemetryOff) {
  const RuntimeConfig cfg;
  EXPECT_FALSE(cfg.telemetry_timeline);
  EXPECT_FALSE(cfg.telemetry_metrics);
  EXPECT_TRUE(cfg.telemetry_report.empty());
  EXPECT_TRUE(cfg.telemetry_trace.empty());
  EXPECT_GT(cfg.telemetry_ring_capacity, 0u);
}

TEST(ConfigFromEnv, ShmKnobsReachDefaultConstructedConfigs) {
  // A fleet operator arms export by environment on whole process trees;
  // tools and benches that build `RuntimeConfig cfg;` by hand (never
  // calling from_env) must honour it too.
  ::setenv("ORCA_SHM_EXPORT", "1", 1);
  ::setenv("ORCA_SHM_PREFIX", "orcaknob", 1);
  ::setenv("ORCA_SHM_RING_CAPACITY", "512", 1);
  ::setenv("ORCA_SHM_HEARTBEAT_MS", "25", 1);
  const RuntimeConfig cfg;
  EXPECT_TRUE(cfg.shm_export);
  EXPECT_EQ(cfg.shm_prefix, "orcaknob");
  EXPECT_EQ(cfg.shm_ring_capacity, 512u);
  EXPECT_EQ(cfg.shm_heartbeat_ms, 25);

  ::setenv("ORCA_SHM_PREFIX", "bad/prefix", 1);
  ::testing::internal::CaptureStderr();
  const RuntimeConfig bad;
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(bad.shm_prefix, "orca") << "slashes would escape /dev/shm";
  EXPECT_NE(warning.find("ORCA_SHM_PREFIX"), std::string::npos) << warning;

  ::unsetenv("ORCA_SHM_EXPORT");
  ::unsetenv("ORCA_SHM_PREFIX");
  ::unsetenv("ORCA_SHM_RING_CAPACITY");
  ::unsetenv("ORCA_SHM_HEARTBEAT_MS");
  const RuntimeConfig off;
  EXPECT_FALSE(off.shm_export);
  EXPECT_EQ(off.shm_prefix, "orca");
}

TEST(EnvHelpers, EnvLongEdgeCases) {
  const char* kKnob = "ORCA_TEST_ENV_LONG";
  ::unsetenv(kKnob);
  EXPECT_EQ(RuntimeConfig::env_long(kKnob, 42, 0, "an int"), 42)
      << "unset keeps the fallback";

  struct Case {
    const char* text;
    const char* why;
  };
  // Every reject must warn (one voice) and keep the fallback.
  const Case rejected[] = {
      {"", "empty string"},
      {"   ", "whitespace only"},
      {"123abc", "trailing junk"},
      {"abc", "not a number"},
      {"12.5", "trailing fraction"},
      {"99999999999999999999", "overflow: strtol clamps to LONG_MAX "
                               "with errno=ERANGE"},
      {"-99999999999999999999", "underflow"},
      {"-7", "below min_value"},
  };
  for (const Case& c : rejected) {
    ::setenv(kKnob, c.text, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(RuntimeConfig::env_long(kKnob, 42, 0, "an int"), 42)
        << c.why << ": \"" << c.text << '"';
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find(kKnob), std::string::npos)
        << c.why << " must warn; got: " << warning;
  }

  // Accepted shapes: full parse at or above min_value, sign included.
  ::setenv(kKnob, "0", 1);
  EXPECT_EQ(RuntimeConfig::env_long(kKnob, 42, 0, "an int"), 0);
  ::setenv(kKnob, "-7", 1);
  EXPECT_EQ(RuntimeConfig::env_long(kKnob, 42, -100, "an int"), -7)
      << "negative is fine when min_value allows it";
  ::setenv(kKnob, "  15", 1);
  EXPECT_EQ(RuntimeConfig::env_long(kKnob, 42, 0, "an int"), 15)
      << "strtol skips leading whitespace";
  ::unsetenv(kKnob);
}

TEST(EnvHelpers, EnvSizeRejectsZeroAndNegative) {
  const char* kKnob = "ORCA_TEST_ENV_SIZE";
  ::unsetenv(kKnob);
  EXPECT_EQ(RuntimeConfig::env_size(kKnob, 1024, "a count"), 1024u);
  // Sizes have an implicit min of 1: a zero or negative capacity would
  // wedge every ring that allocates from it.
  for (const char* bad : {"0", "-1", "-4096", ""}) {
    ::setenv(kKnob, bad, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(RuntimeConfig::env_size(kKnob, 1024, "a count"), 1024u)
        << '"' << bad << '"';
    ::testing::internal::GetCapturedStderr();
  }
  ::setenv(kKnob, "1", 1);
  EXPECT_EQ(RuntimeConfig::env_size(kKnob, 1024, "a count"), 1u);
  ::unsetenv(kKnob);
}

TEST(EnvHelpers, EnvParsedLeavesTargetUntouchedOnGarbage) {
  const char* kKnob = "ORCA_TEST_ENV_PARSED";
  int calls = 0;
  int value = 5;

  ::unsetenv(kKnob);
  RuntimeConfig::env_parsed(
      kKnob,
      [&](const std::string&) {
        ++calls;
        return true;
      },
      "anything", "5");
  EXPECT_EQ(calls, 0) << "unset must not even invoke the parser";

  ::setenv(kKnob, "bogus", 1);
  ::testing::internal::CaptureStderr();
  RuntimeConfig::env_parsed(
      kKnob,
      [&](const std::string& text) {
        ++calls;
        if (text != "seven") return false;
        value = 7;
        return true;
      },
      "the word seven", "5");
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(value, 5) << "rejected parse must leave the target untouched";
  EXPECT_NE(warning.find(kKnob), std::string::npos) << warning;
  EXPECT_NE(warning.find("bogus"), std::string::npos) << warning;
  EXPECT_NE(warning.find("keeping 5"), std::string::npos) << warning;

  ::setenv(kKnob, "seven", 1);
  RuntimeConfig::env_parsed(
      kKnob,
      [&](const std::string& text) {
        ++calls;
        if (text != "seven") return false;
        value = 7;
        return true;
      },
      "the word seven", "5");
  EXPECT_EQ(value, 7);
  ::unsetenv(kKnob);
}

TEST(ConfigDefaults, MatchOpenUh) {
  const RuntimeConfig cfg;
  EXPECT_FALSE(cfg.nested);          // nested regions serialized
  EXPECT_FALSE(cfg.atomic_events);   // atomic waits not implemented
  EXPECT_TRUE(cfg.ordered_events);
  EXPECT_TRUE(cfg.per_thread_queues);
}

}  // namespace
