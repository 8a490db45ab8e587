#!/usr/bin/env python3
"""Per-layer self times from a traced perfbench run's spans.

A traced run (run.py ... --trace 1) writes its spans to
.bench_build/perfbench-spans/<workload>.csv with the columns

    request,id,parent,name,start_ns,end_ns

A span's self time is its duration minus the part of its interval that its
child spans cover; its layer is its name up to the first '.'. Root spans
named "op.*" are the benchmark's operations, and covered_share is the share
of their time that child spans cover. run.py reports covered_share and the
per-layer self times of a traced run from this module.

    python3 perfbench/spans.py FILE            # table by span name and layer
    python3 perfbench/spans.py FILE --json     # the same as JSON
"""

import argparse
import csv
import json
import sys
from collections import defaultdict


def load(path):
    with open(path, newline="") as f:
        return [
            {
                "request": int(r["request"]),
                "id": int(r["id"]),
                "parent": int(r["parent"]),
                "name": r["name"],
                "start": int(r["start_ns"]),
                "end": int(r["end_ns"]),
            }
            for r in csv.DictReader(f)
        ]


def self_times(spans):
    """Self time (ns) of every span, in input order."""
    by_id = {s["id"]: i for i, s in enumerate(spans)}
    kids = defaultdict(list)
    for s in spans:
        i = by_id.get(s["parent"]) if s["parent"] else None
        if i is None:
            continue
        p = spans[i]
        a, b = max(s["start"], p["start"]), min(s["end"], p["end"])
        if b > a:
            kids[i].append((a, b))
    out = []
    for i, s in enumerate(spans):
        covered, cur_a, cur_b = 0, 0, -1
        for a, b in sorted(kids[i]):
            if a > cur_b:
                covered += max(0, cur_b - cur_a)
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        covered += max(0, cur_b - cur_a)
        out.append(s["end"] - s["start"] - covered)
    return out


def summarize(path):
    spans = load(path)
    selfs = self_times(spans)
    names = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
    layers = defaultdict(float)
    op_total = op_self = 0
    for s, own in zip(spans, selfs):
        n = names[s["name"]]
        n["count"] += 1
        n["total_ms"] += (s["end"] - s["start"]) / 1e6
        n["self_ms"] += own / 1e6
        layers[s["name"].split(".", 1)[0]] += own / 1e6
        if s["parent"] == 0 and s["name"].startswith("op."):
            op_total += s["end"] - s["start"]
            op_self += own
    return {
        "spans": len(spans),
        "covered_share": 1.0 - op_self / op_total if op_total else 0.0,
        "self_ms": dict(sorted(layers.items())),
        "names": dict(sorted(names.items())),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    summary = summarize(args.file)
    if args.json:
        json.dump(summary, sys.stdout, indent=1)
        print()
        return
    print(f"{summary['spans']} spans, covered_share "
          f"{summary['covered_share']:.6f}")
    print(f"{'layer':<12}{'self_ms':>14}")
    for layer, ms in summary["self_ms"].items():
        print(f"{layer:<12}{ms:>14.3f}")
    print(f"\n{'span':<48}{'count':>8}{'total_ms':>14}{'self_ms':>14}")
    for name, n in summary["names"].items():
        print(f"{name:<48}{n['count']:>8}{n['total_ms']:>14.3f}"
              f"{n['self_ms']:>14.3f}")


if __name__ == "__main__":
    main()
