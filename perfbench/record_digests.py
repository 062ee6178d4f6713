#!/usr/bin/env python3
"""Record the SHA-256 of every cell's canonical report JSON into digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout. It rewrites the digests of every workload
for workload seeds 0 to 19. Re-recording changes the benchmark's correctness
gate, so do it only when a change to the report bytes is intended and
explained.
"""

import json
import sys

from run import load_harness
from workloads import WORKLOADS, config_dict

SEEDS = range(20)


def main() -> int:
    harness = load_harness()
    table = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            _, cfg, world = harness.setup(config_dict(workload, seed))
            _, cells = harness.run_study(cfg, world)
            if any(cell.digest is None for cell in cells):
                print(f"error: {workload} seed {seed} raised", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = {cell.key: cell.digest for cell in cells}
            print(f"{workload} seed {seed} recorded", file=sys.stderr)
    harness.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
