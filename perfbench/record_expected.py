"""Record the answers of the current smallmodel into perfbench/expected.json.

    python3 perfbench/record_expected.py

The benchmark compares every item's canonical output with these hashes.
They were taken from the seed code, whose verdicts and ``checked`` counts
later changes must keep, so rerun this only when a workload gains items,
and only on code whose outputs are trusted. Seed-free items are stored
under "*", seeded items for the reference seed and the held-out seed. An
item whose independent check fails is never recorded.
"""

from __future__ import annotations

import json
import sys

from worker import EXPECTED, ROOT, run_pass

REFERENCE_SEEDS = (0, 1)  # 0 is the reference seed, 1 is held out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    table = {}
    for workload in workloads.WORKLOADS:
        entry = table.setdefault(workload, {})
        for seed in REFERENCE_SEEDS:
            items = workloads.build(workload, seed)
            *_, failures, hashes = run_pass(items, {})
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            for item in items:
                bucket = entry.setdefault(str(seed) if item.seeded else "*", {})
                if bucket.setdefault(item.id, hashes[item.id]) != hashes[item.id]:
                    print(f"{workload} {item.id}: output depends on the run", file=sys.stderr)
                    return 1
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
