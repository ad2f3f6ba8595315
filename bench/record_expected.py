#!/usr/bin/env python3
"""Record the output digests that run.py checks every operation against.

    python3 bench/record_expected.py            # rewrites bench/expected.json

Run it only on a commit whose outputs are known good: a change that must
keep outputs identical (PCM, score text, MIDI, report values) is checked
against these digests, so re-recording would hide a change in behaviour.
"""

import json
import sys
from pathlib import Path

from run import BENCH, load_workloads

SEEDS = {"full": range(100), "tiny": range(5)}


def main() -> int:
    wl = load_workloads()
    doc = {}
    for size, seeds in SEEDS.items():
        for workload in wl.WORKLOADS:
            table = doc.setdefault(size, {}).setdefault(workload, {})
            for seed in seeds:
                digests = []
                for job in wl.build(workload, seed, size):
                    wl.verify(job)
                    digests.append(job.check(job.run(wl.direct)))
                table[str(seed)] = " ".join(digests)
            print(f"{size} {workload}: {len(seeds)} seeds", file=sys.stderr)
    (BENCH / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
