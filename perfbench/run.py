"""smallmodel benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass is a fresh interpreter
(perfbench/worker.py), started one after another, never two at once: users
start a new smallmodel process for every check, so every pass pays for the
import and for cold module-level caches. Within a pass the items run as a
closed loop with one client. Passes repeat while the next one is expected
to end within S seconds, with at least MIN_PASSES of them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over passes. --trace 1 alternates plain and
traced passes and reports the per-layer metrics, including the
traced/plain wall-time ratio.
Human-readable lines go first; the last line of stdout is one JSON object.
The exit code is 1 when any output is wrong and 2 when nothing could run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_PASSES = {False: 3, True: 2}  # by trace mode; a traced run needs one plain pass
DEADLINE_S = 170  # the whole run, passes included, ends well within 180 s
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_level(n):
    """The highest percentile of the ladder with at least ten items beyond it."""
    return next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 50)


def launch(workload, seed, traced, remaining):
    # a fixed hash seed keeps set and dict orders, and so the work done,
    # the same in every pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), time.monotonic() - t0


def run_passes(workload, seed, seconds, trace):
    """Plain passes, or plain and traced passes alternating in trace mode."""
    passes = {False: [], True: []}
    duration = {}
    start = time.monotonic()
    kinds = (False, True) if trace else (False,)
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        elapsed = time.monotonic() - start
        done = sum(map(len, passes.values()))
        if done >= MIN_PASSES[trace] and elapsed + duration.get(traced, 0) > seconds:
            break
        result, duration[traced] = launch(workload, seed, traced, DEADLINE_S - elapsed)
        passes[traced].append(result)
        i += 1
    return passes[False], passes[True]


def end_to_end(plain):
    """Each metric is the median over the run's passes; the item latency
    percentiles are taken within each pass first. Times come scaled to the
    reference speed by the worker's probes (worker.speed_factors)."""
    n = plain[0]["attempted"]
    level = tail_level(n)
    med = statistics.median
    p50, tail = [], []
    for r in plain:
        lat = sorted(r["latencies_ms"])
        p50.append(percentile(lat, 50))
        tail.append(percentile(lat, level))
    metrics = {
        "setup_s": med(r["setup_s"] for r in plain),
        "wall_s": med(r["wall_s"] for r in plain),
        "cpu_s": med(r["cpu_s"] for r in plain),
        "item_p50_ms": med(p50),
        "item_tail_ms": med(tail),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    raw = {key: med(r["raw"][key] for r in plain) for key in plain[0]["raw"]}
    note = (f"item_tail_ms is p{level:g} of {n} items per pass; before scaling to the "
            f"reference speed: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    return metrics, note


def per_layer(plain, traced):
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = statistics.median(r["layers"][key] for r in traced)
    layers["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in plain))
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="smallmodel benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "smallmodel" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no smallmodel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # byte-compile outside the timed passes, as an installed package would be
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/smallmodel"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    everything = plain + traced
    attempted = sum(r["attempted"] for r in everything)
    failures = [f for r in everything for f in r["failures"]]
    problems = sorted({f for f in failures})
    digests = {r["digest"] for r in everything}
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} different output digests")
    for r in traced:
        problems.extend(p for p in r["trace_problems"] if p not in problems)

    if args.trace:
        values, note = per_layer(plain, traced), "per-layer values are medians over traced passes"
    else:
        values, note = end_to_end(plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark does not compute {missing}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed={args.seed}: {len(plain)} plain and {len(traced)} traced passes, "
          f"{note}")
    for m in wanted:
        print(f"  {m['name']:55s} {values[m['name']]:14.6g} {m['unit']}")
    print(f"  {'error_rate':55s} {len(failures) / attempted:14.6g} "
          f"({len(failures)} of {attempted} items)")
    for p in problems[:20]:
        print(f"FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
