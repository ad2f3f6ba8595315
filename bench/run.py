#!/usr/bin/env python3
"""Seeded benchmark of the nesscore pipeline.

    python3 bench/run.py --workload score-render --seed 0 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: the workload's fixed
input set (built from the seed, see workloads.py) runs pass after pass, one
operation at a time, until --seconds have elapsed.  Every operation's output
is checked against digests stored in expected.json for this seed, or, for a
seed with none stored, against the output of the untimed warm-up pass.
Pass and set-up times are reported at a reference CPU speed measured
between operations (see speed_kernel); host times go to stderr.

The line before last on stdout holds the deterministic work counts of one
pass.  The last line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A traced run also writes its spans to
.bench_out/ at the root of the checkout.  README.md defines each metric.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

SETUP_PROBES = 9
SEGMENT_REPLAYS = 3
# About the median time of speed_kernel() on the 2-vCPU Intel Xeon VM
# (2.1 GHz) the bounds were set on; it ranged 9-15 ms there.  Pass and
# set-up times are reported at this reference speed (see speed_kernel).
REFERENCE_KERNEL_S = 0.012

# Spans whose self time is reported as <name>.s and <name>.share.
TIMED_SPANS = (
    "vgm.parse_vgm", "vgm.flatten_to_writes",
    "apu.extract_timeline", "apu.iter_segments",
    "synth.score_to_writes", "synth.render_writes", "synth.write_wav",
    "score.downsample", "score.write_score_text", "score.to_separated",
    "score.to_blended", "score.read_score_text",
    "midi.score_to_midi", "midi.midi_to_score",
    "evaluation.fit", "evaluation.evaluate", "evaluation.corpus_stats",
    "bench.op",
)


def load_workloads():
    """Import the benchmark's workloads against the checkout's own package."""
    if not (SRC / "nesscore" / "__init__.py").is_file():
        sys.exit(f"bench: no nesscore package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nesscore
    if Path(nesscore.__file__).resolve().parent != SRC / "nesscore":
        sys.exit(f"bench: imported nesscore from {nesscore.__file__}, not from {SRC}")
    import workloads
    return workloads


class Tracer:
    """Spans around the benchmark's calls into package modules, kept in memory.

    A span is [name, start_ns, end_ns, op_id, parent]: ``parent`` is the index
    of the enclosing span, and the spans of one operation share ``op_id``.
    """

    def __init__(self):
        self.spans = []
        self._parent = None
        self._op = 0
        self._names = {}

    def span(self, name, fn, *args):
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._op, self._parent]
        self.spans.append(record)
        self._parent = index
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter_ns()
            self._parent = record[4]

    def call(self, fn, *args):
        """The traced ``call`` hook: one span named <module>.<function>."""
        name = self._names.get(fn)
        if name is None:
            name = self._names[fn] = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        return self.span(name, fn, *args)

    def op(self, job):
        self._op += 1
        return self.span("bench.op", job.run, self.call)

    def self_seconds(self, first: int = 0) -> dict:
        """Self time per span name over spans[first:]: duration minus children."""
        spans = self.spans[first:]
        duration = [end - start for _name, start, end, _op, _parent in spans]
        own = list(duration)
        for span, ns in zip(spans, duration):
            parent = span[4]
            if parent is not None and parent >= first:
                own[parent - first] -= ns
        out = {}
        for span, ns in zip(spans, own):
            out[span[0]] = out.get(span[0], 0.0) + ns / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        doc = {"fields": ["name", "start_ns", "end_ns", "op_id", "parent"], "spans": self.spans}
        path.write_text(json.dumps(doc))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = set()

    def fail(self, job, reason: str) -> None:
        self.failed += 1
        if (job.label, reason) not in self._reported:
            self._reported.add((job.label, reason))
            print(f"bench: {job.label}: {reason}", file=sys.stderr)


def digest_of(job, out, tally=None):
    """The job's output digest, or None when the output breaks an invariant."""
    try:
        return job.check(out)
    except Exception as exc:    # any failure of a check counts against the operation
        if tally is not None:
            tally.fail(job, f"check failed: {exc!r}")
        return None


def speed_kernel() -> float:
    """Seconds taken by a fixed interpreter-and-numpy kernel.

    On a shared machine the CPU's speed drifts by up to 1.5x within seconds.
    The kernel runs between operations; each pass time is scaled by
    REFERENCE_KERNEL_S over the pass's mean kernel time, which leaves the
    time the pass would take at reference speed.  The kernel calls no
    package code, so a change to the package moves scaled times in full.
    """
    start = time.perf_counter()
    reg, bits = 1, []
    for _ in range(40000):
        reg = (reg >> 1) | (((reg ^ (reg >> 1)) & 1) << 14)
        bits.append(reg & 1)
    a = np.arange(2048)
    for _ in range(300):
        np.where((a * 3 + 1) // 7 & 1, a, 0)
    return time.perf_counter() - start


def run_pass(jobs, refs, run_op, tally) -> tuple[float, float]:
    """One closed-loop pass over the input set.

    Returns the summed time of its operations and the mean time of the
    speed kernel, which runs untimed before each operation and after the last.
    """
    elapsed, kernel = 0.0, speed_kernel()
    for job, ref in zip(jobs, refs):
        tally.attempted += 1
        start = time.perf_counter()
        try:
            out = run_op(job)
        except Exception as exc:    # an operation that raises is a failed operation
            elapsed += time.perf_counter() - start
            tally.fail(job, f"raised {exc!r}")
        else:
            elapsed += time.perf_counter() - start
            got = digest_of(job, out, tally)
            if got is not None and got != ref:
                tally.fail(job, f"output digest {got}, expected {ref}")
            del out
        kernel += speed_kernel()
    return elapsed, kernel / (len(jobs) + 1)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter running probe.py."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def stored_refs(workload: str, seed: int, size: str, n_jobs: int):
    doc = json.loads((BENCH / "expected.json").read_text())
    line = doc.get(size, {}).get(workload, {}).get(str(seed))
    if line is None:
        return None
    refs = line.split()
    if len(refs) != n_jobs:
        sys.exit(f"bench: expected.json holds {len(refs)} digests for {n_jobs} jobs")
    return refs


def warm_up(wl, jobs, refs, keep_streams: bool):
    """Untimed first pass: once-per-input checks, counts and reference digests.

    A job whose warm-up fails gets no reference, so each of its timed
    operations counts as failed.  The write streams are kept only for the
    traced run's replay probe, so they do not inflate untraced peak RSS.
    """
    counts = dict.fromkeys(wl.COUNTS, 0)
    digests, streams = [], []
    for job in jobs:
        try:
            wl.verify(job)
            out = job.run(wl.direct)
        except Exception as exc:    # reported here; the timed passes count it
            print(f"bench: {job.label}: warm-up failed: {exc!r}", file=sys.stderr)
            digests.append(None)
            continue
        digests.append(digest_of(job, out))
        for name, value in wl.count(job, out).items():
            counts[name] += value
        if keep_streams and hasattr(out, "stream"):
            streams.append(out.stream)
    if refs is None:
        print("bench: no stored digests for this seed; checking that every pass "
              "repeats the warm-up output", file=sys.stderr)
        return digests, counts, streams
    for job, got, ref in zip(jobs, digests, refs):
        if got != ref:
            print(f"bench: {job.label}: warm-up digest {got}, expected {ref}", file=sys.stderr)
    return [ref if got is not None else None for got, ref in zip(digests, refs)], counts, streams


def derived_counts(counts: dict) -> dict:
    """The reported counts: kept timeline runs become a share of all runs."""
    out = dict(counts)
    kept = out.pop("score.downsample.kept_runs")
    changes, segments = counts["apu.timeline_changes"], counts["apu.segments"]
    out["apu.changes_per_segment"] = changes / segments if segments else 0.0
    out["score.downsample.kept_runs_ratio"] = kept / changes if changes else 0.0
    return out


def layer_metrics(tracer, wl, traced, untraced, per_pass_self, streams, counts) -> dict:
    """Per-layer metrics in host seconds; traced and untraced are (raw, scaled) pairs."""
    wall = statistics.median(raw for raw, _scaled in traced)
    seconds = {name: statistics.median(p.get(name, 0.0) for p in per_pass_self)
               for name in TIMED_SPANS}
    replays = []
    for _ in range(SEGMENT_REPLAYS):
        first = len(tracer.spans)
        for stream in streams:
            tracer.span("apu.iter_segments", wl.segment_count, stream)
        replays.append(tracer.self_seconds(first).get("apu.iter_segments", 0.0))
    seconds["apu.iter_segments"] = statistics.median(replays)

    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}.s"] = (seconds[name], "s")
        metrics[f"{name}.share"] = (seconds[name] / wall, "ratio")
    segments, samples = counts["apu.segments"], counts["synth.samples"]
    extract, render = seconds["apu.extract_timeline"], seconds["synth.render_writes"]
    metrics["apu.extract_timeline.us_per_segment"] = (
        extract / segments * 1e6 if extract and segments else 0.0, "us")
    metrics["synth.render_writes.ns_per_sample"] = (
        render / samples * 1e9 if render and samples else 0.0, "ns")
    for name, value in counts.items():
        metrics[name] = (value, "ratio" if isinstance(value, float) else "count")
    overhead = (statistics.median(scaled for _raw, scaled in traced)
                / statistics.median(scaled for _raw, scaled in untraced))
    metrics["bench.trace_overhead"] = (overhead - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input-set size; tiny is for the self-test")
    args = parser.parse_args(argv)

    wl = load_workloads()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")

    jobs = wl.build(args.workload, args.seed, args.size)
    refs, counts, streams = warm_up(
        wl, jobs, stored_refs(args.workload, args.seed, args.size, len(jobs)), bool(args.trace))
    counts = derived_counts(counts)
    music_s = sum(job.music_s for job in jobs)

    tally, tracer = Tally(), Tracer()
    # (host seconds, seconds at reference speed) of each pass and probe
    untraced, traced, per_pass_self, setups = [], [], [], []
    # Set-up probes run between passes so that they, like the passes, sample
    # the whole run rather than one stretch of a shared machine's load.
    probes = 0 if args.trace else SETUP_PROBES
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        if args.trace and len(untraced) > len(traced):
            first = len(tracer.spans)
            (elapsed, kernel), passes = run_pass(jobs, refs, tracer.op, tally), traced
            per_pass_self.append(tracer.self_seconds(first))
        else:
            elapsed, kernel = run_pass(jobs, refs, lambda job: job.run(wl.direct), tally)
            passes = untraced
        passes.append((elapsed, elapsed * REFERENCE_KERNEL_S / kernel))
        if len(setups) < probes:
            probe = setup_seconds(args.workload, args.seed)
            setups.append((probe, probe * REFERENCE_KERNEL_S / kernel))
        if (time.perf_counter() >= deadline and len(setups) == probes
                and (traced or not args.trace)):
            break

    def quartiles(values):
        return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3

    raw, scaled = zip(*untraced)
    wall_s = statistics.median(scaled)
    print(f"bench: {args.workload} seed {args.seed}: {len(jobs)} ops and {music_s:g} s of "
          f"music per pass; {len(untraced)} untraced and {len(traced)} traced passes; "
          f"untraced pass quartiles {' / '.join(f'{q:.4f}' for q in quartiles(raw))} s "
          f"host, {' / '.join(f'{q:.4f}' for q in quartiles(scaled))} s at reference speed; "
          f"{tally.failed} of {tally.attempted} ops failed", file=sys.stderr)
    if setups:
        print(f"bench: set-up probe median {statistics.median(raw for raw, _s in setups):.4f} s "
              f"host over {len(setups)} probes", file=sys.stderr)
    print(json.dumps({"counts": counts, "ops_per_pass": len(jobs), "music_s_per_pass": music_s}))

    if args.trace:
        metrics = layer_metrics(tracer, wl, traced, untraced, per_pass_self, streams, counts)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (statistics.median(scaled for _raw, scaled in setups), "s"),
            "wall_s": (wall_s, "s"),
            "rtf": (music_s / wall_s, "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        }
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
