#!/usr/bin/env python3
"""Repository benchmark: fault campaigns on a compiled model, with
edit-and-rebuild, and the verify/bisect debugging loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the driver
(perfbench/driver, linked against the repository's own libraries) under
$CARGO_TARGET_DIR (default .bench_build). Each run then starts the driver
a few times in a row, every time with a fresh, empty private compile
cache under the build directory that is deleted afterwards, and
aggregates the processes:

  --trace 0  every end-to-end metric of BENCHMARK.json
  --trace 1  every per-layer metric of BENCHMARK.json (0 for a layer the
             workload does not use) and the tracing overhead

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it restate the
metrics for people, under the workload's own names too. See
perfbench/README.md for the workloads, metrics and their interactions.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fault-rv32i", "verify-msi")

# Driver processes per untraced run. Each pays its own cold set-up and
# rebuild, and runs the closed loop for seconds / PROCESSES.
PROCESSES = 2

# Budget for everything after the build: a run must end within 180 s.
DEADLINE_S = 170

# The workload's own names for the generic end-to-end metrics, printed
# next to them: (generic name, own name, scale).
# Figures over the fastest run of each repeated input carry "best";
# campaigns and bisects count every run.
ALIASES = {
    "fault-rv32i": [("throughput", "trials_per_s", 1),
                    ("op_ms_p50", "campaign_ms_p50", 1),
                    ("op_ms_p90", "campaign_ms_p90", 1)],
    "verify-msi": [("throughput", "verify_kcycles_best_per_s", 1),
                   ("op_ms_p50", "bisect_ms_p50", 1),
                   ("op_ms_p90", "bisect_ms_p90", 1)],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of a source checkout (no CMakeLists.txt "
             "and src/ here)")
    tree = os.path.join(build_dir, "tree")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    hook = os.path.join(root, "perfbench", "attach.cmake")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", tree,
                      "-DCMAKE_PROJECT_INCLUDE=" + hook])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", tree, "--target", "perfbench_driver",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL, env=env
                              ).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(tree, "perfbench_driver")


def child_env(tmp, cache):
    """The driver's environment: no benchmark knobs from the caller, and
    every cache and temporary directory inside the private run dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KOIKA_")}
    env["TMPDIR"] = tmp
    env["CUTTLESIM_CACHE_DIR"] = cache
    env["XDG_CACHE_HOME"] = cache
    return env


def stop_driver(signum, frame):
    """Signal handler: the driver runs in its own session (so that its
    compiler children can be killed as a group); take it down too."""
    if DRIVER is not None:
        try:
            os.killpg(DRIVER.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(128 + signum)


DRIVER = None


def run_driver(driver, build_dir, args, seconds, threads, deadline,
               corrupt=""):
    """One driver process with a fresh private cache; returns its result
    with the process's own peak RSS added."""
    run_dir = os.path.join(build_dir, "runs", "%d-%d" % (os.getpid(),
                                                        time.monotonic_ns()))
    cache, work, tmp = (os.path.join(run_dir, d)
                        for d in ("cache", "work", "tmp"))
    for d in (cache, work, tmp):
        os.makedirs(d)
    out_path = os.path.join(run_dir, "result.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--cache", cache, "--work", work, "--threads", str(threads),
           "--corrupt", corrupt]
    global DRIVER
    try:
        with open(out_path, "wb") as out:
            proc = DRIVER = subprocess.Popen(
                cmd, stdout=out, stdin=subprocess.DEVNULL,
                env=child_env(tmp, cache), start_new_session=True)
        # Reap with wait4 for the driver's own rusage: RUSAGE_CHILDREN
        # would also count the compiler processes it runs.
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                fail("driver timed out")
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            fail("driver exited with %d" % proc.returncode)
        with open(out_path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
    finally:
        # Nothing the driver started (compiler runs share its session)
        # may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, UnboundLocalError):
            pass
        DRIVER = None
        shutil.rmtree(run_dir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def quantile(values, q):
    """The q-quantile (0 < q < 1) of values, exclusive method."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[int(round(q * 100)) - 1]


def fastest_runs(results):
    """Every operation as (work, seconds, latency_ms), with the runs of an
    input the workload repeats (same input number, any process) reduced
    to the fastest one: the host this was tuned on slows down by up to
    2x for seconds at a time, which the best of many runs does not see."""
    def time_of(op):
        work, secs, ms = op
        return ms if ms >= 0 else secs

    best = {}
    for n, r in enumerate(results):
        for j, (key, work, secs, ms) in enumerate(r["ops"]):
            key = ("input", key) if key >= 0 else (n, j)
            op = (work, secs, ms)
            if key not in best or time_of(op) < time_of(best[key]):
                best[key] = op
    return list(best.values())


def end_to_end(results):
    ops = fastest_runs(results)
    runs = sum(len(r["ops"]) for r in results)
    latencies = [ms for _, _, ms in ops if ms >= 0]
    work = sum(w for w, _, _ in ops)
    work_s = sum(s for _, s, _ in ops)
    if not latencies or work <= 0 or work_s <= 0:
        fail("no operations were measured")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        # The same edit rebuilt in every process: the fastest counts, as
        # for the operations.
        "rebuild_s": min(r["rebuild_s"] for r in results),
        # Total work over the seconds it took, all processes together.
        "throughput": work / work_s,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": quantile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    sample = "n=%d of %d runs" % (len(latencies), runs)
    notes = {"throughput": "%.6g work in %.3f s" % (work, work_s),
             "op_ms_p50": sample, "op_ms_p90": sample,
             "setup_s": "median of %d" % len(results),
             "rebuild_s": "fastest of %d" % len(results),
             "peak_rss_mb": "median of %d" % len(results)}
    return values, notes


def per_layer(result, threads):
    values = dict(result["layers"])
    traced = result["traced_work"] / result["traced_work_s"]
    untraced = result["work"] / result["work_s"]
    values["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0
    values["host.nproc"] = float(os.cpu_count() or 1)
    values["host.threads"] = float(threads)
    return values, {}


# Oracle self-test: per workload, each corruption the driver can make
# (--corrupt NAME, one oracle's input) and the failure its oracle must
# report.
SELF_TEST = {
    "fault-rv32i": [("summary", "differs from a recount of its records"),
                    ("record", "record differs from T5"),
                    ("rebuild-t5", "differs from T5 on the edited design"),
                    ("rebuild-edit", "simulates the unedited design")],
    "verify-msi": [("lockstep", "lockstep stretch"),
                   ("bisect", "verdict differs from the linear scan"),
                   ("checkpoint", "checkpoint restore"),
                   ("rebuild", "rebuilt engines disagree")],
}


def self_test(driver, build_dir, threads):
    """Run every workload once per corruption; the corrupted oracle must
    fail, and a clean run must not."""
    ok = True
    for workload, cases in SELF_TEST.items():
        args = argparse.Namespace(workload=workload, seed=1, trace=0)
        for corrupt, text in [("", None)] + cases:
            result = run_driver(driver, build_dir, args, 3.0, threads,
                                time.monotonic() + DEADLINE_S,
                                corrupt=corrupt)
            if text is None:
                passed = result["failed"] == 0
            else:
                passed = any(text in f for f in result["failures"])
            ok = ok and passed
            print("self-test %-12s %-13s %-10s %s" % (
                workload, corrupt or "(none)",
                "ok" if passed else "NOT CAUGHT" if text else "FAILED",
                "; ".join(result["failures"][:2])))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every oracle catches a corrupted "
                             "answer, then exit")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None or args.seconds <= 0
                               or args.seed < 0):
        parser.error("--workload, --seed >= 0 and --seconds > 0 are required")

    root = os.getcwd()
    build_dir = os.path.join(root,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    driver = build(root, build_dir)

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, stop_driver)
    threads = min(os.cpu_count() or 1, 4)
    if args.self_test:
        sys.exit(0 if self_test(driver, build_dir, threads) else 1)
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        results = [run_driver(driver, build_dir, args, args.seconds, threads,
                              deadline)]
        values, notes = per_layer(results[0], threads)
        wanted = spec["per_layer"]
    else:
        results = [run_driver(driver, build_dir, args,
                              args.seconds / PROCESSES, threads, deadline)
                   for _ in range(PROCESSES)]
        values, notes = end_to_end(results)
        wanted = spec["end_to_end"]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    print("compiler: %s" % results[0]["compiler"])
    print("nproc %d, threads %d, processes %d" % (os.cpu_count() or 1,
                                                  threads, len(results)))
    for m in wanted:
        # A layer the workload does not use did no work: 0.
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-28s %16.6f %-10s %s" % (m["name"], value, m["unit"],
                                          notes.get(m["name"], "")))
    if not args.trace:
        for generic, own, scale in ALIASES[args.workload]:
            print("  = %-26s %16.6f" % (own, values[generic] * scale))
    print("  %-28s %16.6f %-10s %d of %d" % ("failed_ratio",
                                              failed / max(attempted, 1),
                                              "fraction", failed, attempted))
    for r in results:
        for f in r["failures"]:
            print("  FAILED: " + f)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
