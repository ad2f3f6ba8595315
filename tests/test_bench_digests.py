"""The benchmark's outputs against its stored digests (bench/expected.json).

Every job of a workload goes through the benchmark's own once-per-input check
(``workloads.verify``) and output check, so the byte identity the benchmark
gates on (PCM, NESSCORE text, MIDI and both modeling views, and the
evaluation reports) also holds here: the tiny input sets of seeds 0-4, and
seed 0's full set of the two workloads that run the score writers.  The
benchmark's work counts, made with the list-building APIs it calls, must
equal the same counts read off the arrays.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nesscore import apu, score

BENCH = Path(__file__).resolve().parent.parent / "bench"
EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True    # leave bench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


CASES = ([("tiny", workload, seed)
          for workload in ("score-render", "vgm-render", "vgm-convert", "corpus-eval")
          for seed in range(5)]
         + [("full", "score-render", 0), ("full", "vgm-convert", 0)])


@pytest.mark.parametrize("size, workload, seed", CASES)
def test_digests_match_the_stored_ones(workloads, size, workload, seed):
    digests = []
    for job in workloads.build(workload, seed, size):
        workloads.verify(job)
        digests.append(job.check(job.run(workloads.direct)))
    assert digests == EXPECTED[size][workload][str(seed)].split()


# The write counts each workload makes, from ``stream.writes``.
WRITE_COUNTS = {"score-render": ("synth.writes",), "vgm-render": ("vgm.writes", "synth.writes"),
                "vgm-convert": ("vgm.writes",), "corpus-eval": ()}


@pytest.mark.parametrize("workload", sorted(WRITE_COUNTS))
def test_work_counts_match_the_arrays(workloads, workload):
    for job in workloads.build(workload, 0, "tiny"):
        out = job.run(workloads.direct)
        counts = workloads.count(job, out)
        if workload == "corpus-eval":
            frames = sum(len(score.read_score_text(text)) for part in job.input for text in part)
            assert counts["score.frames"] == counts["evaluation.timesteps"] == frames
            continue
        assert counts["apu.segments"] == len(apu.replay(out.stream)[0])
        for name in WRITE_COUNTS[workload]:
            assert counts[name] == len(out.stream.offsets), name
        if workload == "vgm-convert":
            assert counts["apu.timeline_changes"] == len(out.timeline.starts)
