#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --ops K --trace 0|1 --record DIR

Builds perfbench/bench.exe from source with dune (build directory
.bench_build), runs one workload, and prints the program's report followed
by one JSON result line. With --trace 0 the result carries the end-to-end
metrics, with --trace 1 the per-layer ones. --record DIR also writes the
full record (metrics, deterministic counts, span tree, configuration, git
revision, nproc, OCaml version) to DIR/<workload>.json for compare.py.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["build-65k", "publish-16k", "recover-4k", "aggregate-4k"]
# Seeds 1-10 were used while the benchmark was written; claims made with
# it should also hold on this one.
HELDOUT_SEED = 7919
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def build():
    dune = find_dune()
    if dune is None:
        sys.exit("run.py: dune not found")
    # Keep every file the build writes inside the checkout.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", DUNE_BUILD_DIR=BUILD_DIR,
               TMPDIR=tmp)
    r = subprocess.run(
        [dune, "build", "--root", ROOT, "--profile", "release",
         "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        sys.exit("run.py: build failed")


def run_exe(args):
    """Run bench.exe; return (exit code, stdout, peak RSS in MB)."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return p.returncode, out, usage.ru_maxrss / 1024.0


def host_info():
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    return {"git_rev": rev, "nproc": os.cpu_count(),
            "heldout_seed": HELDOUT_SEED}


def run_workload(workload, a):
    args = ["--workload", workload, "--seed", str(a.seed),
            "--trace", str(a.trace)]
    args += ["--ops", str(a.ops)] if a.ops else ["--seconds", str(a.seconds)]
    code, out, rss_mb = run_exe(args)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"run.py: {workload} exited with code {code}")
    record = json.loads(lines[-1])
    record.update(host_info())
    record["end_to_end"]["heap_peak_mb"] = {"value": rss_mb, "unit": "MB"}
    print("\n".join(lines[:-1]))
    print(f"  {'heap_peak_mb':<28} {rss_mb:14.6g} MB")
    if a.record:
        os.makedirs(a.record, exist_ok=True)
        with open(os.path.join(a.record, workload + ".json"), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    metrics = record["per_layer" if a.trace else "end_to_end"]
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--ops", type=int, default=0,
                    help="run exactly this many operations instead of "
                         "--seconds (for the traced/untraced agreement check)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", metavar="DIR",
                    help="write each workload's full record to DIR")
    a = ap.parse_args()
    build()
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for w in names:
        results[w] = run_workload(w, a)
        sys.stdout.flush()
    result = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}:{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
