"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --t0 T [--trace]

``--t0`` is the CLOCK_MONOTONIC reading taken by the launching process
just before it started this one, so set-up time includes interpreter
start. The pass imports smallmodel from ``src/`` of the checkout, builds
the seeded inputs, then runs every item once, one after another, checking
each output. It prints one JSON line with the pass's numbers: times scaled
to a reference interpreter speed measured by probes (see run_pass), and
the unscaled ones under "raw".
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def canon_hash(canon) -> str:
    blob = json.dumps(canon, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def recorded_answers(workload, seed):
    """Per-item output hashes recorded from the seed code: seed-free items
    under "*", seeded items under their seed (reference and held-out)."""
    table = json.loads(EXPECTED.read_text()).get(workload, {})
    return {**table.get("*", {}), **table.get(str(seed), {})}


PROBE_REF_S = 50e-6   # the probe's time at the reference speed
PROBE_WINDOW_S = 0.5  # probes this close to an item gauge its speed
PROBE_TIMER_S = 0.25  # probe interval inside long items


def probe() -> tuple:
    """Time a fixed piece of pure-Python work, which takes about 50 us on
    the reference host; return (start, duration). Shared hosts change the
    interpreter's speed from second to second, so probes between items
    measure it where the items run."""
    start = time.perf_counter()
    counts = {}
    for i in range(300):
        counts[i % 37] = counts.get(i % 37, 0) + i * i // 7
    return start, time.perf_counter() - start


def speed_factors(probes, intervals):
    """Slowdown against the reference speed for each item: the mean of the
    probes taken within PROBE_WINDOW_S of its interval, over PROBE_REF_S."""
    starts = [start for start, _ in probes]
    factors = []
    for begin, end in intervals:
        lo = bisect.bisect_left(starts, begin - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, end + PROBE_WINDOW_S)
        near = [duration for _, duration in probes[lo:hi]]
        factors.append(sum(near) / len(near) / PROBE_REF_S)
    return factors


def probe_time_within(probes, starts, begin, end):
    """Time the probes that started inside [begin, end) took; ``starts``
    are the probes' sorted start times."""
    lo, hi = bisect.bisect_left(starts, begin), bisect.bisect_left(starts, end)
    return sum(duration for _, duration in probes[lo:hi])


def run_pass(items, expected):
    """Run and check every item, probing the speed before each item, after
    the last and every PROBE_TIMER_S during items (a SIGALRM handler runs
    the probe between bytecodes). Return item latencies (run) and spans
    (run and check) with the probes' time taken out, item intervals,
    probes, failures and output hashes."""
    timed, failures, hashes = [], [], {}
    probes = [probe()]
    signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_TIMER_S, PROBE_TIMER_S)
    try:
        for item in items:
            start = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a raising item counts as failed, the pass goes on
                timed.append((start, time.perf_counter(), time.perf_counter()))
                failures.append(f"{item.id}: raised {type(exc).__name__}: {exc}")
                probes.append(probe())
                continue
            ran = time.perf_counter()
            canon, problems = item.check(out)
            hashes[item.id] = canon_hash(canon)
            if item.id in expected and expected[item.id] != hashes[item.id]:
                problems = problems + ["output differs from the answer recorded from the seed code"]
            if problems:
                failures.append(f"{item.id}: {'; '.join(problems)}")
            timed.append((start, ran, time.perf_counter()))
            probes.append(probe())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    probes.sort()
    starts = [start for start, _ in probes]
    latencies = [ran - start - probe_time_within(probes, starts, start, ran)
                 for start, ran, _ in timed]
    spans = [end - start - probe_time_within(probes, starts, start, end)
             for start, _, end in timed]
    intervals = [(start, end) for start, _, end in timed]
    return latencies, spans, intervals, probes, failures, hashes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import smallmodel  # noqa: F401  (the cold import is part of set-up)
    import workloads

    if not Path(smallmodel.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported smallmodel from {smallmodel.__file__}, not from src/")
    items = workloads.build(args.workload, args.seed)
    expected = recorded_answers(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    cpu0 = time.process_time()
    latencies, spans, intervals, probes, failures, hashes = run_pass(items, expected)
    cpu_s = time.process_time() - cpu0 - sum(duration for _, duration in probes)
    factors = speed_factors(probes, intervals)
    wall_s = sum(spans)
    scaled_wall_s = sum(t / f for t, f in zip(spans, factors))
    scale = scaled_wall_s / wall_s  # whole-pass conversion to the reference speed

    report = {
        "raw": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s},
        "setup_s": setup_s * scale,
        "wall_s": scaled_wall_s,
        "cpu_s": cpu_s * scale,
        "latencies_ms": [1000 * t / f for t, f in zip(latencies, factors)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(items),
        "failures": failures,
        "digest": canon_hash(sorted(hashes.items())),
    }
    if tracer is not None:
        report["layers"] = {key: value * scale if key.endswith(".self_s") else value
                            for key, value in tracer.layer_metrics().items()}
        report["trace_problems"] = tracer.problems(args.workload, wall_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
