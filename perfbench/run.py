#!/usr/bin/env python3
"""Repository benchmark: profiling cost end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the ORCA libraries from
src/ plus the perfbench_orca harness) into .bench_build/, runs one workload
for --seconds, checks every iteration's outputs, and prints a human summary
followed, as the last line, by one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("luhp-tool", "fleet-paced")
RUN_LIMIT_S = 170.0  # the whole run, build excluded, must end well inside 180 s
SHM_DIR = "/dev/shm"
SHM_FAMILY = "orcabench-"
# Reduced by the median over a run's iterations; every other per-iteration
# metric is a timing and takes the fastest iteration.
MEDIAN_METRICS = ("setup_s", "peak_rss_mb")

# Failure strings the harness prints when a run could not produce its
# profile (the operation failed), as opposed to producing a wrong one.
OPERATION_FAILURES = (
    "quarantined",
    "monitor never attached",
    "monitor did not go idle",
    "producer did not arm",
    "producer stream did not complete",
    "producer exit status",
    "tool attach failed",
    "fork failed",
    "pipe failed",
)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the harness; returns the binary path.

    The configure step runs every time so the build stamp (git sha) names
    the tree being measured; cmake rebuilds only what changed.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("ORCA sources (src/) not found next to perfbench/; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps = [configure, ["cmake", "--build", out, "--target", "perfbench_orca", "-j", jobs]]
        for cmd in steps:
            log.write("$ %s\n" % " ".join(cmd))
            log.flush()
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (log: %s)" % log_path)
    return os.path.join(out, "perfbench_orca")


def reap_stale_segments():
    """Unlink benchmark shm segments whose owner process is gone.

    Names are "orcabench-<harness pid>-<seed>.<producer pid>.<seq>"; a
    segment is stale once its producer pid no longer exists.
    """
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if not name.startswith(SHM_FAMILY):
            continue
        parts = name.split(".")
        try:
            pid = int(parts[-2])
        except (ValueError, IndexError):
            continue
        if _alive(pid):
            continue
        try:
            os.unlink(os.path.join(SHM_DIR, name))
            removed += 1
        except OSError:
            pass
    return removed


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def fingerprint(build_info):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    clocksource = "unknown"
    try:
        with open("/sys/devices/system/clocksource/clocksource0/current_clocksource") as f:
            clocksource = f.read().strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            with open(os.path.join(top, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "clocksource": clocksource,
        "build_type": build_info.get("build_type", "unknown"),
        "git_sha": build_info.get("git_sha", "unknown"),
        "src_sha1": digest.hexdigest()[:12],
    }


def run_harness(binary, args, work_dir, deadline):
    """Run perfbench_orca in its own process group; kill + reap on timeout."""
    cmd = [binary, "--workload=%s" % args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=%s" % work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("harness exceeded its deadline; killed", 3)
    finally:
        # Any producer the harness forked lives in the same group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    records = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except ValueError:
                die("unparseable harness line: %s" % line[:200], 3)
    if proc.returncode != 0:
        die("harness exited with %d" % proc.returncode, 3)
    return records


def classify(it):
    """ok | failed (no profile produced) | incorrect (a wrong profile)."""
    if it.get("ok"):
        return "ok"
    why = it.get("failure", "")
    return "failed" if any(why.startswith(p) for p in OPERATION_FAILURES) else "incorrect"


def reduce_end_to_end(records, spec):
    """One value per metric over the measured iterations (warm-up left out).

    setup_s and peak_rss_mb are the median over the run's iterations.
    The other per-iteration metrics are timings, the region latency
    percentiles of each iteration included, and take the run's fastest
    iteration: host contention only ever slows an iteration, and on a
    shared VM it comes in bursts that can cover most of a run. The report
    phases are also bimodal within one run, and the share of the slow mode
    moves with the host, so every quantile of them, the median included,
    jumps between the modes from run to run. delivered_frac is computed
    over every measured iteration at once.
    """
    iters = [r for r in records if r.get("kind") == "iter" and not r.get("warmup")]
    good = [r for r in iters if classify(r) == "ok"]
    if not good:
        return None, {}
    samples = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "delivered_frac":
            fired = sum(r["fired"] for r in iters)
            delivered = sum(r["delivered"] for r in iters)
            samples[name] = [delivered / fired] if fired else []
        else:
            samples[name] = [r[name] for r in good]
    metrics = {}
    for m in spec["end_to_end"]:
        vals = samples[m["name"]]
        if not vals:
            return None, samples
        value = statistics.median(vals) if m["name"] in MEDIAN_METRICS else min(vals)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, samples


def reduce_layers(records, spec):
    layers = {r["name"]: r for r in records if r.get("kind") == "layer"}
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in layers:
            return None, layers
        metrics[m["name"]] = {"value": layers[m["name"]]["value"], "unit": m["unit"]}
    return metrics, layers


def verdict(records):
    iters = [r for r in records if r.get("kind") == "iter"]
    kinds = [classify(r) for r in iters]
    return {
        "correct": "incorrect" not in kinds and len(iters) > 0,
        "attempted": len(iters),
        "failed": sum(1 for k in kinds if k != "ok"),
    }


def summarize(args, fp, records, samples, layers):
    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(fp, sort_keys=True))
    for r in records:
        if r.get("kind") == "info" and r.get("what") == "thread_budget":
            print("thread budget: %d busy threads <= nproc %d" % (r["busy_threads"], r["nproc"]))
    for r in records:
        if r.get("kind") == "iter" and not r.get("ok"):
            print("FAILED iteration (%s, arm %s): %s" % (classify(r), r["arm"], r["failure"]))
    measured = [r for r in records if r.get("kind") == "iter" and r.get("ok") and not r.get("warmup")]
    if samples and measured:
        print("region latency: %d regions over %d measured iterations" % (
            sum(r["region_samples"] for r in measured), len(measured)))
    for name, vals in samples.items():
        if vals:
            print("  %-16s median %-12.6g n=%-3d min %-10.6g max %.6g" % (
                name, statistics.median(vals), len(vals), min(vals), max(vals)))
    for name, r in layers.items():
        print("  %-34s %-14.6g %-6s n=%-4d %s" % (name, r["value"], r["unit"], r["samples"], r["note"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    binary = build()
    started = time.monotonic()
    work_dir = os.path.join(os.path.dirname(build_dir()), "work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    reap_stale_segments()
    try:
        records = run_harness(binary, args, work_dir, started + RUN_LIMIT_S)
    finally:
        reap_stale_segments()

    build_info = next((r for r in records if r.get("what") == "build"), {})
    fp = fingerprint(build_info)
    result = verdict(records)
    if args.trace:
        metrics, layers = reduce_layers(records, spec)
        samples = {}
    else:
        metrics, samples = reduce_end_to_end(records, spec)
        layers = {}
    summarize(args, fp, records, samples, layers)
    if metrics is None:
        die("no metrics: every iteration failed or a metric is missing", 4)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
