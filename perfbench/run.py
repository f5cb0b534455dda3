#!/usr/bin/env python3
"""Figure-reproduction benchmark for g5art (see BENCHMARK.json).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
g5 libraries plus perfbench/figbench.cc (Release) under
$CARGO_TARGET_DIR (default .bench_build). Each repetition runs in a
fresh figbench process whose root is a fresh private tmpfs mounted on a
directory under the build directory, so the checkpoint memory tier and
ru_maxrss start empty and file I/O costs no disk journal. Repetitions
continue while the next one fits in --seconds; the medians are
reported. The line before the last is the host record; the last line
is the result object {"correct", "attempted", "failed", "metrics"}.
See perfbench/NOTES.md for the workloads, metrics and run conditions.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced repetitions and reports the per-layer table of the traced
ones plus the tracing overhead on cold_s.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden")

WORKLOADS = {
    "boot-census": "boot-census.txt",
    "boot-census-workers": "boot-census.txt",
    "parsec-timing": "parsec-timing.txt",
    "gpu-regalloc": "gpu-regalloc.txt",
}

# A set-up takes a few milliseconds and swings with the host from one
# second to the next, so setup_s is the median of many fresh
# setup-only processes, run in batches between the repetitions until
# there are this many.
SETUP_SAMPLES = 40
SETUP_BATCH = 8

# A repetition that hangs is killed after this many seconds.
REP_TIMEOUT_S = 150

# Each repetition's root becomes a fresh tmpfs, mounted in a private
# mount namespace: nothing outside the checkout is touched, and the
# mount disappears with the process. On ext4 a boot-census cold pass
# spends 0.8-1.2 s of kernel CPU on its ~2,500 output, WAL and blob
# files and cold_s swings by a quarter; on tmpfs it is 0.1-0.14 s.
TMPFS = ["unshare", "--mount", "--propagation", "private", "--",
         "sh", "-c", 'mount -t tmpfs -o size=2g tmpfs "$0" && exec "$@"']


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build figbench; return its path."""
    if not os.path.exists(os.path.join(SRC, "CMakeLists.txt")):
        raise RuntimeError("g5 sources not found next to perfbench/")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    bdir = os.path.join(target, "perfbench")
    exe = os.path.join(bdir, "figbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                    "--target", "figbench"],
                   check=True, stdout=sys.stderr)
    return exe, os.path.join(target, "work")


def tmpfs_available(workdir):
    """Whether repetitions can run on a private tmpfs root."""
    probe = os.path.join(workdir, "probe")
    os.makedirs(probe, exist_ok=True)
    try:
        ok = subprocess.run(TMPFS + [probe, "true"],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        ok = False
    os.rmdir(probe)
    if not ok:
        log("perfbench: no private tmpfs; workspaces stay on the "
            "checkout's filesystem (see fs_type in the host record)")
    return ok


class Runner:
    """Starts repetitions of one workload; @p extra flags go to each."""

    def __init__(self, exe, workdir, tmpfs, workload, extra=(),
                 golden=None):
        self.exe = exe
        self.workdir = workdir
        self.tmpfs = tmpfs
        self.workload = workload
        self.extra = list(extra)
        self.golden = golden or os.path.join(GOLDEN, WORKLOADS[workload])
        self.count = 0

    def rep(self, seed, *flags):
        """One repetition in a fresh process on a fresh workspace."""
        self.count += 1
        root = os.path.join(self.workdir, "%d-%d" % (os.getpid(),
                                                     self.count))
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("G5")}
        cmd = [self.exe, "--workload", self.workload, "--seed",
               str(seed), "--root", root, "--golden", self.golden,
               *self.extra, *flags]
        if self.tmpfs:
            cmd = TMPFS + [root] + cmd
        try:
            p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               timeout=REP_TIMEOUT_S)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if p.returncode != 0:
            raise RuntimeError("figbench exited %d: %s" %
                               (p.returncode, p.stderr.strip()[-400:]))
        out = json.loads(p.stdout.strip().splitlines()[-1])
        for f in out["failures"]:
            log("  failed: " + f)
        return out


def rep_seed(seed, k):
    """Repetition k of a run permutes the cells by its own sub-seed."""
    return seed * 1000 + k


def measure(runner, seed, seconds, traced):
    """Repeat while the next repetition fits in @p seconds.

    When the warm phase costs at least half the cold one, a cold-only
    repetition follows each full one, so cold_s gets more samples per
    second. Set-up samples are spread over the run rather than taken at
    one moment. A traced run follows each untraced full repetition with
    a traced one.
    @return (full reps, cold-only reps, traced reps, setup samples)
    """
    start = time.monotonic()
    full, cold_only, traced_reps, setups = [], [], [], []
    longest = {"full": 0.0, "cold": 0.0, "traced": 0.0}
    kind, k = "full", 0
    while True:
        t0 = time.monotonic()
        for _ in range(min(SETUP_BATCH, SETUP_SAMPLES - len(setups))):
            setups.append(runner.rep(rep_seed(seed, 500 + len(setups)),
                                     "--setup-only")["setup_s"])
        if kind == "traced":
            traced_reps.append(runner.rep(rep_seed(seed, k), "--trace"))
        elif kind == "cold":
            cold_only.append(runner.rep(rep_seed(seed, k), "--cold-only"))
        else:
            full.append(runner.rep(rep_seed(seed, k)))
        k += 1
        longest[kind] = max(longest[kind], time.monotonic() - t0)
        warm_heavy = full[-1]["warm_s"] >= full[-1]["cold_s"] / 2
        if kind == "full" and traced:
            kind = "traced"
            continue  # a traced repetition always follows its pair
        kind = "cold" if kind != "cold" and warm_heavy else "full"
        # Until a cold-only repetition has run, it is estimated as a
        # full one without its warm phase.
        estimate = longest[kind] or longest["full"] - full[-1]["warm_s"]
        if time.monotonic() - start + estimate > seconds:
            break
    setups += [r["setup_s"] for r in full + cold_only + traced_reps]
    return full, cold_only, traced_reps, setups


# End-to-end metrics that need the warm phase, so only full repetitions
# measure them.
FULL_ONLY = {"figure_s", "peak_rss_mb"}


def summarize(spec, runner, seed, seconds, traced):
    full, cold_only, traced_reps, setups = measure(runner, seed, seconds,
                                                   traced)
    reps = full + cold_only + traced_reps
    # The host record rides with every result, ahead of the result line.
    print(json.dumps({"host": reps[0]["host"]}, sort_keys=True))
    metrics = {}
    if traced:
        cold = median([r["cold_s"] for r in full + cold_only])
        cold_traced = median([r["cold_s"] for r in traced_reps])
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "base.trace_overhead_frac":
                value = cold_traced / cold - 1.0
            else:
                value = median([r["layers"][name]
                                for r in traced_reps])
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "setup_s":
                values = setups
            else:
                values = [r[name] for r in full + ([] if name in FULL_ONLY
                                                   else cold_only)]
            metrics[name] = {"value": median(values),
                             "unit": m["unit"]}
            log("%-12s median %.6g over %d: %s" % (
                name, metrics[name]["value"], len(values),
                " ".join("%.4g" % v for v in values)))
        warm = [r["warm_s"] for r in full if r["warm_s"] > 0]
        if warm:
            log("%-12s median %.6g over %d" % ("warm_s", median(warm),
                                               len(warm)))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def corrupt(src, dst, workload):
    """Copy a golden with one cell's value changed."""
    with open(src) as f:
        lines = f.read().splitlines()
    cell, value = lines[0].split("\t", 1)
    if workload == "gpu-regalloc":
        value = str(int(value) + 1)
    elif workload == "parsec-timing":
        status, roi, insts = value.split()
        value = "%s %d %s" % (status, int(roi) + 1, insts)
    else:
        value = "success" if value != "success" else "kernel-panic"
    lines[0] = cell + "\t" + value
    with open(dst, "w") as f:
        f.write("\n".join(lines) + "\n")


# Slice sizes for the self-test: enough cells to cover each workload's
# code paths (journal, relaunches, workers, both allocators) quickly.
SELF_TEST_SLICE = {"boot-census": 48, "boot-census-workers": 48,
                   "parsec-timing": 6, "gpu-regalloc": 6}


def check_names(result, metrics, what, problems):
    """Every metric of @p metrics is reported, by name, with its unit."""
    got = result["metrics"]
    for m in metrics:
        entry = got.get(m["name"])
        if not entry or entry.get("unit") != m["unit"] or \
                not isinstance(entry.get("value"), (int, float)):
            problems.append("%s: %s missing or without unit %s" %
                            (what, m["name"], m["unit"]))
    if set(got) != {m["name"] for m in metrics}:
        problems.append("%s: unexpected metrics %s" %
                        (what, sorted(set(got) - {m["name"] for m in
                                                  metrics})))


def self_test(spec, exe, workdir, tmpfs):
    """Run a slice of every workload through the same code paths as a
    measured run: the frozen golden passes, a golden with one corrupted
    census entry or cycle count fails, and the output names every
    metric with its unit. @return True when all of that holds."""
    problems = []
    for workload, n in SELF_TEST_SLICE.items():
        sliced = ("--slice", str(n))
        emitted = os.path.join(workdir, "slice.golden")
        Runner(exe, workdir, tmpfs, workload, sliced).rep(
            1, "--emit-golden", emitted)
        bad_golden = os.path.join(workdir, "corrupt.golden")
        corrupt(emitted, bad_golden, workload)

        runner = Runner(exe, workdir, tmpfs, workload, sliced)
        clean = summarize(spec, runner, 2, 0, False)
        if not clean["correct"] or clean["failed"] != 0:
            problems.append("%s: clean slice reported %d/%d failed" %
                            (workload, clean["failed"],
                             clean["attempted"]))
        check_names(clean, spec["end_to_end"], workload, problems)
        traced = summarize(spec, runner, 3, 0, True)
        check_names(traced, spec["per_layer"], workload + " traced",
                    problems)

        bad = summarize(spec, Runner(exe, workdir, tmpfs, workload,
                                     sliced, bad_golden), 4, 0, False)
        if bad["correct"] or bad["failed"] < 1:
            problems.append("%s: corrupted golden not reported as failed"
                            % workload)
        log("self-test %s: clean %d/%d failed, corrupted %d failed" %
            (workload, clean["failed"], clean["attempted"],
             bad["failed"]))
    for p in problems:
        log("SELF-TEST FAILURE: " + p)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    spec = load_spec()
    exe, workdir = build()
    os.makedirs(workdir, exist_ok=True)
    tmpfs = tmpfs_available(workdir)
    if args.self_test:
        ok = self_test(spec, exe, workdir, tmpfs)
        log("self-test " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    runner = Runner(exe, workdir, tmpfs, args.workload)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = summarize(spec, runner, args.seed, seconds, args.trace == 1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
