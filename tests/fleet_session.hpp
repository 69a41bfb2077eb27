/// RAII teardown for the multi-process fleet tests (fleet_monitor_test,
/// chaos_fleet_test). A session owns the producer children it forked, the
/// monitor and the thread running it. Whatever way the test leaves the
/// scope (a pass, a failed ASSERT, an early return) the destructor writes
/// the stop file, stops and joins the monitor, SIGKILLs and reaps every
/// child not yet reaped, and unlinks the prefix's segments. A failing
/// assertion then reports its failure instead of hitting std::terminate
/// on a joinable thread or leaking a producer process.
#pragma once

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "shm/reader.hpp"
#include "tool/orcamon/fleet_monitor.hpp"

namespace orca::testing {

class FleetSession {
 public:
  using ProducerBody = void (*)(const std::string& prefix,
                                const std::string& stop_file);

  FleetSession(std::string prefix, std::string stop_file)
      : prefix_(std::move(prefix)), stop_file_(std::move(stop_file)) {
    std::remove(stop_file_.c_str());
  }

  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;

  ~FleetSession() {
    stop_producers();
    if (runner_.joinable()) {
      monitor_->stop();
      runner_.join();
    }
    for (const pid_t pid : kids_) {
      (void)::kill(pid, SIGKILL);
      int status = 0;
      (void)::waitpid(pid, &status, 0);
    }
    // Quarantined segments are deliberately not unlinked by the monitor,
    // and killed producers leave theirs behind.
    for (const shm::SegmentName& s : shm::discover_segments(prefix_)) {
      ::shm_unlink(("/" + s.name).c_str());
    }
    std::remove(stop_file_.c_str());
  }

  const std::string& prefix() const noexcept { return prefix_; }
  const std::string& stop_file() const noexcept { return stop_file_; }
  /// Children forked and not yet reaped, in fork order.
  const std::vector<pid_t>& children() const noexcept { return kids_; }

  /// Fork a producer child running `body` (which must not return).
  /// Returns its pid, or -1 when fork failed.
  pid_t fork_producer(ProducerBody body) {
    const pid_t pid = ::fork();
    if (pid == 0) body(prefix_, stop_file_);
    if (pid > 0) kids_.push_back(pid);
    return pid;
  }

  /// Build the monitor and start run() on the session's runner thread.
  tool::orcamon::FleetMonitor& start_monitor(
      const tool::orcamon::MonitorOptions& opts) {
    monitor_ = std::make_unique<tool::orcamon::FleetMonitor>(opts);
    runner_ = std::thread([this] { monitor_->run(); });
    return *monitor_;
  }

  tool::orcamon::FleetMonitor& monitor() noexcept { return *monitor_; }

  /// Ask every producer to finish cleanly.
  void stop_producers() const { std::ofstream(stop_file_) << "stop\n"; }

  /// Wait for run() to return on its own (idle exit or duration).
  void join_monitor() {
    if (runner_.joinable()) runner_.join();
  }

  /// waitpid() one child into *status and forget it; false when the wait
  /// failed.
  bool reap(pid_t pid, int* status) {
    const pid_t got = ::waitpid(pid, status, 0);
    kids_.erase(std::remove(kids_.begin(), kids_.end(), pid), kids_.end());
    return got == pid;
  }

 private:
  std::string prefix_;
  std::string stop_file_;
  std::vector<pid_t> kids_;
  std::unique_ptr<tool::orcamon::FleetMonitor> monitor_;
  std::thread runner_;
};

}  // namespace orca::testing
