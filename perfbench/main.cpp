/// perfbench_orca — the measuring half of the repository benchmark.
///
///   perfbench_orca --workload=<luhp-tool|fleet-paced>
///                  --seed=N --seconds=S --trace=0|1 --work-dir=DIR
///
/// Prints JSON lines (harness.hpp) that perfbench/run.py reduces into the
/// benchmark result. Exit code 0 means every line was printed; a failed
/// correctness check is reported inside an "iter" line, not by exit code.
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/buildinfo.hpp"
#include "harness.hpp"

namespace perfbench {

unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

bool check_thread_budget(const char* workload, unsigned busy) {
  const unsigned cores = usable_cores();
  JsonLine("info")
      .str("what", "thread_budget")
      .str("workload", workload)
      .count("busy_threads", busy)
      .count("nproc", cores)
      .print();
  if (busy > cores) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u busy threads but only %u cores are "
                 "usable\n",
                 workload, busy, cores);
    return false;
  }
  return true;
}

}  // namespace perfbench

namespace {

const char* flag(int argc, char** argv, const char* name) {
  const std::size_t n = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0 &&
        std::strncmp(argv[i] + 2, name, n) == 0 && argv[i][2 + n] == '=') {
      return argv[i] + 3 + n;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (orca::common::handle_version_flag(argc, argv, "perfbench_orca")) return 0;
  prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);  // die with run.py
  perfbench::Options opts;
  if (const char* v = flag(argc, argv, "workload")) opts.workload = v;
  if (const char* v = flag(argc, argv, "seed")) opts.seed = std::strtoull(v, nullptr, 10);
  if (const char* v = flag(argc, argv, "seconds")) opts.seconds = std::atof(v);
  if (const char* v = flag(argc, argv, "trace")) opts.trace = std::atoi(v) != 0;
  if (const char* v = flag(argc, argv, "work-dir")) opts.work_dir = v;

  perfbench::JsonLine("info")
      .str("what", "build")
      .str("version", orca::common::version_line("perfbench_orca"))
      .str("git_sha", ORCA_GIT_SHA)
      .str("build_type", ORCA_BUILD_TYPE)
      .print();

  perfbench::Spans spans;
  spans.enable(opts.trace);
  int rc = 2;
  if (opts.workload == "luhp-tool") {
    rc = perfbench::run_luhp_tool(opts, spans);
  } else if (opts.workload == "fleet-paced") {
    rc = perfbench::run_fleet_paced(opts, spans);
  } else {
    std::fprintf(stderr, "perfbench_orca: unknown --workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  if (opts.trace) {
    const std::string path = opts.work_dir + "/spans_" + opts.workload + ".json";
    const bool ok = spans.write(path);
    perfbench::JsonLine("info")
        .str("what", "span_trace")
        .str("path", path)
        .count("spans", spans.size())
        .flag("written", ok)
        .print();
    if (!ok) rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
