#!/usr/bin/env python3
"""Build and run the carat benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload whatif_tcp --seed 1 --seconds 20 --trace 0

builds perfbench/ (Release, into $CARGO_TARGET_DIR or .bench_build), runs one
workload and prints its report; the last line is the JSON result. A traced
run (--trace 1) also writes the spans to
<build>/perfbench-spans/<workload>.csv, and trace.covered_share and the
per-layer self times (self_ms.<layer>) are computed from them by spans.py.

Steadiness check, same build:

    python3 perfbench/run.py --steady [--runs 10] [--seconds 20]
                             [--save FILE] [--compare FILE]

runs every workload of BENCHMARK.json --runs times with seeds 1, 2, ... and
prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median against the
metric's bound. --save keeps the values; --compare checks this set's medians
against a saved set (not worse by more than the bound).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Layers whose self time a traced run reports (a span's layer is its name up
# to the first '.'; "op" is the benchmark's own time around the calls).
LAYERS = ("op", "rpc", "serve", "model", "carat", "fuzz")
# spans.py sits next to this script; it is imported without leaving bytecode
# in the checkout.
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import spans  # noqa: E402


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no carat sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def declared():
    """The metric lists of BENCHMARK.json, when the checkout has one."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, report lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--revision", revision()]
    span_file = None
    if trace:
        spans_dir = os.path.join(os.path.dirname(build_dir()),
                                 "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        span_file = os.path.join(spans_dir, workload + ".csv")
        cmd += ["--spans", span_file]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        return r.returncode or 1, lines, None
    result = json.loads(lines[-1])
    if span_file is not None:
        add_span_metrics(span_file, result)
    return 0, lines[:-1], result


def add_span_metrics(path, result):
    """Adds trace.covered_share and self_ms.<layer> from the span file."""
    summary = spans.summarize(path)
    metrics = result["metrics"]
    metrics["trace.covered_share"] = {"value": summary["covered_share"],
                                      "unit": "ratio"}
    for layer in LAYERS:
        metrics["self_ms." + layer] = {
            "value": summary["self_ms"].get(layer, 0.0), "unit": "ms"}


def check_names(result, trace):
    spec = declared()
    if spec is None:
        return
    want = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")


def single(args):
    binary = build()
    code, lines, result = run_once(binary, args.workload, args.seed,
                                   args.seconds, args.trace == 1)
    for line in lines:
        print(line)
    if result is None:
        sys.exit(code)
    check_names(result, args.trace == 1)
    print(json.dumps(result))


def steady(args):
    spec = declared()
    if spec is None:
        fail("--steady needs BENCHMARK.json at the checkout root")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    binary = build()
    saved = {}
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)
    record = {}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        bad = 0
        for i in range(args.runs):
            seed = 1 + i
            code, lines, result = run_once(binary, w, seed, seconds, False)
            if result is None:
                fail(f"{w} seed {seed} exited {code}: " + " | ".join(lines))
            if not result["correct"] or result["failed"]:
                bad += 1
                print("\n".join(l for l in lines if "FAILED" in l))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        record[w] = values
        print(f"\n{w}: {args.runs} runs, {bad} with failures")
        print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'sp/bnd':>8}  verdict")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ratio = spread / bounds[name]
            worst = max(worst, ratio)
            verdict = "steady" if ratio < 1 / 3 else (
                "within bound" if ratio <= 1 else "TOO NOISY")
            line = (f"{name:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                    f"{spread:>9.4f}{bounds[name]:>7.2f}{ratio:>8.3f}  "
                    f"{verdict}")
            if w in saved:
                old = statistics.median(saved[w][name])
                better = next(m["better"] for m in spec["end_to_end"]
                              if m["name"] == name)
                change = (med - old) / old
                worse = change if better == "lower" else -change
                line += (f"; vs saved {change:+.4f} "
                         f"{'OK' if worse <= bounds[name] else 'REGRESSED'}")
            print(line)
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(record, f, indent=1)
    print(f"worst spread/bound: {worst:.3f}")


def main():
    ap = argparse.ArgumentParser(
        description="Build and run the carat benchmark.")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    if args.steady:
        steady(args)
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        spec = declared()
        args.seconds = spec["run_seconds"] if spec else 15
    single(args)


if __name__ == "__main__":
    main()
