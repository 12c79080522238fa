#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile|tune|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --table [--seed N] [--seconds S]

Run from the root of a checkout.  The first form builds perfbench/perf.exe
and bin/shackled.exe from source with dune (into .bench_build, or
$CARGO_TARGET_DIR when set), runs one workload and passes its output
through: the last line of standard output is the JSON result.  With two
CPUs or more and taskset installed, the benchmark runs pinned to one CPU
and the serve workload's daemon to another.  The second
form runs every workload untraced and prints one row per workload with
every end-to-end metric, its unit, and the result of the output checks.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    """dune on PATH, else the opam switch's; returns (dune, env)."""
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    dune = shutil.which("dune")
    if dune is None:
        root = os.environ.get("OPAMROOT", os.path.expanduser("~/.opam"))
        found = sorted(glob.glob(os.path.join(root, "*", "bin", "dune")))
        if not found:
            die("dune not found")
        dune = found[0]
        env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    return dune, env


def build():
    """Build the benchmark and the daemon; returns (perf_exe, shackled_exe, out_dir)."""
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is missing: run from a full checkout of the repository" % need)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = base if os.path.isabs(base) else os.path.join(ROOT, base)
    build_dir = os.path.join(base, "dune")
    os.makedirs(base, exist_ok=True)
    dune, env = find_dune()
    cmd = [dune, "build", "--root", ROOT, "--build-dir", build_dir,
           "--profile", "release", "--display", "quiet",
           "./perfbench/perf.exe", "./bin/shackled.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 3)
    if r.returncode != 0:
        die("build failed", 3)
    out_dir = os.path.join(base, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(build_dir, "default")
    return (os.path.join(exe, "perfbench", "perf.exe"),
            os.path.join(exe, "bin", "shackled.exe"), out_dir)


def stop_group(proc):
    """Kill the run's process group (perf.exe and any daemon it started)
    and wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def cpus():
    """(cpu for the benchmark, cpu for the daemon), or (None, None) when
    there are fewer than two CPUs or no taskset to pin with."""
    avail = sorted(os.sched_getaffinity(0))
    if len(avail) < 2 or shutil.which("taskset") is None:
        return None, None
    return avail[0], avail[1]


def run_one(perf, shackled, out_dir, workload, seed, seconds, trace, capture):
    cmd = [perf, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--shackled", shackled, "--out-dir", out_dir,
           "--bench-json", os.path.join(ROOT, "BENCHMARK.json")]
    bench_cpu, daemon_cpu = cpus()
    if daemon_cpu is not None:
        cmd += ["--daemon-cpu", str(daemon_cpu)]

    def pin():
        if bench_cpu is not None:
            os.sched_setaffinity(0, {bench_cpu})

    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, preexec_fn=pin,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        die("%s timed out" % workload, 4)
    stop_group(proc)
    if proc.returncode != 0:
        die("%s exited with %d" % (workload, proc.returncode), 5)
    return out


def table(perf, shackled, out_dir, seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = seconds or bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]
    rows = []
    for w in bench["workloads"]:
        out = run_one(perf, shackled, out_dir, w["name"], seed, seconds, 0, True)
        rows.append((w["name"], json.loads(out.decode().strip().splitlines()[-1])))
    head = ["workload"] + ["%s [%s]" % (m["name"], m["unit"]) for m in bench["end_to_end"]]
    head += ["failed_ratio", "correct"]
    print("  ".join("%-18s" % h for h in head))
    ok = True
    for name, res in rows:
        cells = [name] + ["%.6g" % res["metrics"][n]["value"] for n in names]
        cells += ["%.3g" % (res["failed"] / max(1, res["attempted"])), str(res["correct"])]
        ok = ok and res["correct"]
        print("  ".join("%-18s" % c for c in cells))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", action="store_true")
    a = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        die("BENCHMARK.json is missing")
    if not a.table and (a.workload is None or a.seconds is None):
        die("need --workload and --seconds (or --table)")
    perf, shackled, out_dir = build()
    if a.table:
        sys.exit(table(perf, shackled, out_dir, a.seed, a.seconds))
    run_one(perf, shackled, out_dir, a.workload, a.seed, a.seconds, a.trace, False)


if __name__ == "__main__":
    main()
