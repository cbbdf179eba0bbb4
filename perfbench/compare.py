#!/usr/bin/env python3
"""Per-layer delta printer for benchmark records (see perfbench/README.md).

    python3 perfbench/compare.py A B

A and B are record files written by `run.py --record DIR`, or two such
directories (workloads are matched by file name). For each workload it
prints end-to-end and workload deltas, per-layer metric deltas and
per-span self-time deltas (B - A), so a claimed saving can be pinned to
the layer where it landed.

When both records ran the same workload, seed and --ops count, every
deterministic count must match; a mismatch is listed and the exit code
is 1. When one record is traced and the other is not, the difference in
measured wall time is printed as the tracing overhead.
"""

import json
import os
import sys


def load_pairs(a, b):
    if os.path.isdir(a) and os.path.isdir(b):
        names = sorted(set(os.listdir(a)) & set(os.listdir(b)))
        return [(n[:-5], os.path.join(a, n), os.path.join(b, n))
                for n in names if n.endswith(".json")]
    return [(os.path.basename(a)[:-5], a, b)]


def fmt_delta(x, y):
    d = y - x
    rel = f"{d / x:+8.1%}" if x else "     n/a"
    return f"{x:14.6g} {y:14.6g} {d:+14.6g} {rel}"


def print_metrics(title, ma, mb):
    print(f"  {title}")
    for k in ma:
        if k in mb:
            u = ma[k]["unit"]
            print(f"    {k:28s} {fmt_delta(ma[k]['value'], mb[k]['value'])} {u}")


def self_by_layer(rec):
    """Self time per span name, summed over every path it nests under."""
    out = {}
    for path, s in rec["spans"].items():
        name = path.rsplit("/", 1)[-1]
        out[name] = out.get(name, 0.0) + s["self_s"]
    return out


def compare(name, ra, rb):
    print(f"== {name}: A seed {ra['seed']} trace {int(ra['trace'])} rev "
          f"{ra.get('git_rev', '?')}  |  B seed {rb['seed']} trace "
          f"{int(rb['trace'])} rev {rb.get('git_rev', '?')}")
    print(f"    {'':28s} {'A':>14s} {'B':>14s} {'B-A':>14s} {'rel':>8s}")
    print_metrics("end to end", ra["end_to_end"], rb["end_to_end"])
    print_metrics("workload", ra["workload_metrics"], rb["workload_metrics"])
    la, lb = self_by_layer(ra), self_by_layer(rb)
    if la or lb:
        print("  self time per span (s)")
        for k in sorted(set(la) | set(lb)):
            print(f"    {k:28s} {fmt_delta(la.get(k, 0.0), lb.get(k, 0.0))}")
    if ra["trace"] and rb["trace"]:
        print_metrics("per layer", ra["per_layer"], rb["per_layer"])
    ok = True
    if (ra["seed"], ra["budget"]) == (rb["seed"], rb["budget"]) \
            and "ops" in ra["budget"]:
        bad = [k for k in ra["counts"]
               if ra["counts"][k] != rb["counts"].get(k)]
        for k in bad:
            print(f"  COUNT MISMATCH {k}: {ra['counts'][k]} vs "
                  f"{rb['counts'].get(k)}")
        print(f"  deterministic counts: {len(ra['counts']) - len(bad)}"
              f"/{len(ra['counts'])} agree")
        ok = not bad
        if ra["trace"] != rb["trace"]:
            t, u = (ra, rb) if ra["trace"] else (rb, ra)
            over = t["elapsed_s"] - u["elapsed_s"]
            print(f"  tracing overhead: {over:+.4f} s "
                  f"({over / u['elapsed_s']:+.1%} of the untraced "
                  f"{u['elapsed_s']:.4f} s)")
    return ok


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    ok = True
    for name, fa, fb in load_pairs(sys.argv[1], sys.argv[2]):
        with open(fa) as f:
            ra = json.load(f)
        with open(fb) as f:
            rb = json.load(f)
        ok = compare(name, ra, rb) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
