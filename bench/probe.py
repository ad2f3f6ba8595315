"""Set-up probe: a fresh interpreter imports nesscore and runs a workload's
first operation on about one second of music.  run.py times the whole
process from outside, so work done at import or on first use shows up.

    python3 bench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the package path above)

job = workloads.build(sys.argv[1], int(sys.argv[2]), "probe")[0]
job.check(job.run(workloads.direct))
