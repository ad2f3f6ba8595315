"""Seeded inputs, operations and output checks for the nesscore benchmark.

A workload is a list of jobs built from the seed before any timing starts.
Each job runs one operation through the package's public functions and
returns its output; ``check`` turns that output into a short digest and
raises ``CheckFailed`` when an invariant does not hold.  Every call into a
package module goes through the ``call`` hook the runner passes in, so the
runner can record a span around it; with tracing off the hook is a plain
call.

The generators live here, not in the test suite, so that editing tests can
never change benchmark inputs.  Song lengths are fixed lists per size and
the costliest renderer input (noise period) is drawn from a shuffled deck,
so every seed gives input sets of equal size and equal noise-LFSR work while
notes, velocities, timbres and durations vary with the seed.
"""

import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable

from nesscore import apu, evaluation, midi, score, synth, vgm
from nesscore.score import ExpressiveFrame, ExpressiveScore
from nesscore.vgm import TimedWrite, TimedWriteStream

SAMPLE_RATE = 44100
RATE_HZ = 24.0
NTSC_FRAME_SAMPLES = 735            # one 60 Hz driver tick at 44.1 kHz

# Song lengths in seconds per input-set size.  "probe" is the one-second
# input of the set-up measurement; "tiny" is the self-test's input.
SONG_SECONDS = {
    "score-render": {"full": (4, 6, 8, 10, 12, 14), "tiny": (1, 2), "probe": (1,)},
    "vgm-render": {"full": (4, 6, 8, 10, 14, 18), "tiny": (1, 2), "probe": (1,)},
    "vgm-convert": {"full": (15, 25, 35, 45, 55, 65, 75), "tiny": (1, 2), "probe": (1,)},
}
# corpus-eval: (train song lengths, test song lengths) in seconds.
CORPUS_SECONDS = {
    "full": ((10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40),
             (15, 20, 25, 30)),
    "tiny": ((2, 3, 4), (2, 3)),
    "probe": ((0.5,), (0.5,)),
}
# One operation per (task, model) pair the evaluator defines, as `nesscore eval`.
EVAL_PAIRS = (
    ("separated", "random"), ("separated", "unigram"), ("separated", "bigram"),
    ("expressive", "random"), ("expressive", "unigram"), ("expressive", "bigram"),
    ("blended", "random"), ("blended", "note-unigram"), ("blended", "chord-unigram"),
)


class CheckFailed(Exception):
    """An operation's output broke an invariant the benchmark checks."""


@dataclass
class Job:
    label: str
    music_s: float                  # seconds of music the operation processes
    op: Callable                    # op(input, call) -> output
    input: object
    check: Callable                 # check(output) -> digest

    def run(self, call):
        return self.op(self.input, call)


def direct(fn, *args):
    """The untraced ``call`` hook."""
    return fn(*args)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# held-note random scores

PULSE_LOWEST = 33       # pulse MIDI 32 has no 11-bit timer, so it cannot be rendered
NOISE_HIT_FRAMES = 3
NOISE_GAPS = (0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 3, 3)


def _deck(rng: random.Random, gaps: tuple, shuffle: bool) -> tuple[list, list]:
    """One round of noise hits: every period once, with a fixed multiset of gaps.

    LFSR work per frame differs ~1000x between periods, so a free draw would
    make render time depend more on the seed than on the code.  Full rounds
    are shuffled; the partial round that ends a song keeps a fixed order.
    """
    periods, gaps = list(range(16)), list(gaps)
    if shuffle:
        rng.shuffle(periods)
        rng.shuffle(gaps)
    return periods, gaps


def _pulse_voice(rng: random.Random, n: int) -> list:
    out = []
    while len(out) < n:
        dur = rng.randint(1, 12)
        if rng.random() < 0.3:
            out.extend([(0, 0, 0)] * dur)
            continue
        note, vel, timbre = rng.randint(PULSE_LOWEST, 108), rng.randint(1, 15), rng.randint(0, 3)
        decay = rng.random() < 0.3
        for k in range(dur):
            out.append((note, max(1, vel - k) if decay else vel, timbre))
    return out[:n]


def _triangle_voice(rng: random.Random, n: int) -> list:
    out = []
    while len(out) < n:
        dur = rng.randint(1, 12)
        out.extend([(0 if rng.random() < 0.3 else rng.randint(21, 108),)] * dur)
    return out[:n]


def _noise_voice(rng: random.Random, n: int) -> list:
    out = []
    full_rounds = n // (16 * NOISE_HIT_FRAMES + sum(NOISE_GAPS))
    for r in range(full_rounds + 1):
        periods, gaps = _deck(rng, NOISE_GAPS, shuffle=r < full_rounds)
        for p, gap in zip(periods, gaps):
            vel, mode = rng.randint(4, 15), int(rng.random() < 0.25)
            out.extend((16 - p, max(1, vel - k), mode) for k in range(NOISE_HIT_FRAMES))
            out.extend([(0, 0, 0)] * gap)
    return out[:n]


def held_score(rng: random.Random, seconds: float) -> ExpressiveScore:
    """Random valid, synthesizable 24 Hz score whose voices hold notes."""
    n = round(seconds * RATE_HZ)
    voices = (_pulse_voice(rng, n), _pulse_voice(rng, n),
              _triangle_voice(rng, n), _noise_voice(rng, n))
    frames = [ExpressiveFrame(*p1, *p2, *tr, *no) for p1, p2, tr, no in zip(*voices)]
    return ExpressiveScore(rate_hz=RATE_HZ, frames=frames)


# ---------------------------------------------------------------------------
# driver-like VGM streams
#
# A sound driver ticks once per NTSC frame and rewrites duty, volume and
# timer-low of each pulse every tick; onsets load the length counters.  Half
# the pulse notes run on the hardware envelope, a fifth on the sweep unit.

NOISE_HIT_TICKS = 8
DRIVER_NOISE_GAPS = tuple(range(16))


def _driver_pulse(rng: random.Random, base: int):
    while True:
        dur, duty = rng.randint(4, 40), rng.randint(0, 3)
        if rng.random() < 0.25:
            for _ in range(dur):
                yield ((base, (duty << 6) | 0x30),)         # constant volume 0
            continue
        timer = apu.midi_to_timer(rng.randint(PULSE_LOWEST, 96), "pulse")
        envelope = rng.random() < 0.5
        swept = rng.random() < 0.2
        sweep = (0x80 | rng.randint(1, 7) << 4 | rng.randint(0, 1) << 3 | rng.randint(1, 7)
                 if swept else 0x08)
        vol, vibrato, length = rng.randint(6, 15), rng.randint(0, 2), rng.randint(0, 31)
        for k in range(dur):
            if envelope:        # length counts down, envelope decays at period `vol`
                control = (duty << 6) | vol
            else:               # length halted, software decay on constant volume
                control = (duty << 6) | 0x30 | max(1, vol - k // 4)
            low = timer + (vibrato if k % 6 < 3 else -vibrato)
            if low >> 8 != timer >> 8:
                low = timer
            if k == 0:
                yield ((base + 1, sweep), (base, control), (base + 2, timer & 0xFF),
                       (base + 3, length << 3 | timer >> 8))
            elif swept:         # the sweep unit owns the timer now
                yield ((base, control),)
            else:
                yield ((base, control), (base + 2, low & 0xFF))


def _driver_triangle(rng: random.Random):
    while True:
        dur = rng.randint(4, 48)
        if rng.random() < 0.3:
            for _ in range(dur):
                yield ((0x4008, 0x80),)     # reload value 0: silent once the counter empties
            continue
        timer = apu.midi_to_timer(rng.randint(28, 84), "triangle")
        # held notes keep the reload armed; counted ones run the linear counter down
        linear = rng.randint(8, 127) if rng.random() < 0.5 else 0xFF
        yield ((0x4008, linear), (0x400A, timer & 0xFF),
               (0x400B, rng.randint(0, 31) << 3 | timer >> 8))
        for _ in range(dur - 1):
            yield ((0x4008, linear), (0x400A, timer & 0xFF))


def _driver_noise(rng: random.Random, ticks: int):
    full_rounds = ticks // (16 * NOISE_HIT_TICKS + sum(DRIVER_NOISE_GAPS))
    for r in range(full_rounds + 1):
        periods, gaps = _deck(rng, DRIVER_NOISE_GAPS, shuffle=r < full_rounds)
        for p, gap in zip(periods, gaps):
            mode, vel = rng.randint(0, 3) == 0, rng.randint(9, 15)
            period = mode << 7 | p
            yield ((0x400C, 0x30 | vel), (0x400E, period), (0x400F, rng.randint(0, 31) << 3))
            for k in range(1, NOISE_HIT_TICKS):
                yield ((0x400C, 0x30 | (vel - k)), (0x400E, period))
            for _ in range(gap):
                yield ((0x400C, 0x30), (0x400E, period))


def driver_stream(rng: random.Random, seconds: float, five_step: bool) -> TimedWriteStream:
    """Timed writes of a driver-like song: every channel register, every frame."""
    ticks = round(seconds * SAMPLE_RATE / NTSC_FRAME_SAMPLES)
    voices = (_driver_pulse(rng, 0x4000), _driver_pulse(rng, 0x4004),
              _driver_triangle(rng), _driver_noise(rng, ticks))
    writes = [TimedWrite(0, 0x4017, 0xC0 if five_step else 0x40)]
    for tick in range(ticks):
        offset = tick * NTSC_FRAME_SAMPLES
        if tick % 32 == 0:
            writes.append(TimedWrite(offset, 0x4015, 0x0F))    # re-enable all voices
        for voice in voices:
            writes.extend(TimedWrite(offset, reg, value) for reg, value in next(voice))
    return TimedWriteStream(writes=writes, total_samples=ticks * NTSC_FRAME_SAMPLES)


# ---------------------------------------------------------------------------
# operations

@dataclass
class Rendered:
    stream: TimedWriteStream
    wav: bytes


@dataclass
class Converted:
    stream: TimedWriteStream
    timeline: apu.Timeline
    score: ExpressiveScore
    text: bytes
    midi: bytes
    separated: score.SeparatedScore
    blended: score.BlendedScore
    text_back: ExpressiveScore
    midi_back: ExpressiveScore


def _score_render(s: ExpressiveScore, call) -> Rendered:
    stream = call(synth.score_to_writes, s)
    return Rendered(stream, call(synth.write_wav, call(synth.render_writes, stream)))


def _vgm_render(image: bytes, call) -> Rendered:
    stream = call(vgm.flatten_to_writes, call(vgm.parse_vgm, image))
    return Rendered(stream, call(synth.write_wav, call(synth.render_writes, stream)))


def _vgm_convert(image: bytes, call) -> Converted:
    stream = call(vgm.flatten_to_writes, call(vgm.parse_vgm, image))
    timeline = call(apu.extract_timeline, stream)
    s = call(score.downsample, timeline, RATE_HZ)
    text = call(score.write_score_text, s)
    mid = call(midi.score_to_midi, s)
    separated = call(score.to_separated, s)
    blended = call(score.to_blended, separated)
    return Converted(stream, timeline, s, text, mid, separated, blended,
                     call(score.read_score_text, text), call(midi.midi_to_score, mid, RATE_HZ))


def _read_corpus(texts: list, call) -> list:
    return [call(score.read_score_text, t) for t in texts]


def _corpus_eval(task: str, kind: str, corpus: tuple, call) -> evaluation.EvalReport:
    train, test = corpus
    model = call(evaluation.fit, kind, _read_corpus(train, call), task)
    return call(evaluation.evaluate, model, _read_corpus(test, call), task)


def _corpus_stats(corpus: tuple, call) -> evaluation.CorpusStats:
    train, test = corpus
    return call(evaluation.corpus_stats, _read_corpus(train + test, call))


# ---------------------------------------------------------------------------
# checks

def _check_render(out: Rendered) -> str:
    if len(out.wav) != 44 + 2 * out.stream.total_samples:
        raise CheckFailed(f"WAV of {len(out.wav)} bytes for {out.stream.total_samples} samples")
    return _digest(out.wav)


def _check_convert(out: Converted) -> str:
    problems = score.validate(out.score)
    if problems:
        raise CheckFailed(f"invalid score: {problems[0]}")
    if out.text_back != out.score:
        raise CheckFailed("NESSCORE text does not read back to the score")
    if out.midi_back != out.score:
        raise CheckFailed("MIDI does not read back to the score")
    return _digest(out.text, out.midi, out.separated.notes.tobytes(), out.blended.grid.tobytes())


def _rounded_json(doc: str) -> bytes:
    # Report values are compared to 9 significant digits so that a last-ulp
    # difference in a vectorised log or sum does not read as a failure.
    def walk(v):
        if isinstance(v, float):
            return f"{v:.9g}"
        if isinstance(v, dict):
            return {k: walk(x) for k, x in sorted(v.items())}
        if isinstance(v, list):
            return [walk(x) for x in v]
        return v
    return json.dumps(walk(json.loads(doc)), sort_keys=True).encode()


def _check_report(out) -> str:
    if isinstance(out, evaluation.CorpusStats):
        return _digest(_rounded_json(out.to_json()))
    return _digest(_rounded_json(evaluation.report_to_json(out)))


def verify(job: Job) -> None:
    """Checks made once per input, outside the timed loop.

    A rendered score must survive the exact round trip
    score -> writes -> extraction -> score.
    """
    if job.op is _score_render:
        s = job.input
        back = score.downsample(apu.extract_timeline(synth.score_to_writes(s)), s.rate_hz)
        if back != s:
            raise CheckFailed("score does not survive score_to_writes + extract_timeline")


# ---------------------------------------------------------------------------
# input sets

def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The workload's fixed input set for this seed, as jobs in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-eval":
        train_s, test_s = CORPUS_SECONDS[size]
        train = [score.write_score_text(held_score(rng, s)) for s in train_s]
        test = [score.write_score_text(held_score(rng, s)) for s in test_s]
        music = float(sum(train_s) + sum(test_s))
        jobs = [Job(f"{task}/{kind}", music, partial(_corpus_eval, task, kind), (train, test),
                    _check_report) for task, kind in EVAL_PAIRS]
        jobs.append(Job("stats", music, _corpus_stats, (train, test), _check_report))
        return jobs

    # Songs run shortest first in every seed, so that the allocation history
    # behind peak RSS does not depend on the seed.  Every other song runs the
    # 5-step frame sequencer.
    jobs = []
    for i, s in enumerate(SONG_SECONDS[workload][size]):
        label, five_step = f"song{i}-{s}s", i % 2 == 1
        if workload == "score-render":
            jobs.append(Job(label, s, _score_render, held_score(rng, s), _check_render))
            continue
        image = vgm.write_vgm(driver_stream(rng, s, five_step))
        if workload == "vgm-render":
            jobs.append(Job(label, s, _vgm_render, image, _check_render))
        else:
            jobs.append(Job(label, s, _vgm_convert, image, _check_convert))
    return jobs


# ---------------------------------------------------------------------------
# deterministic work counts

COUNTS = ("vgm.bytes", "vgm.writes", "apu.segments", "apu.timeline_changes",
          "synth.samples", "synth.writes", "score.frames", "score.downsample.kept_runs",
          "midi.bytes", "evaluation.timesteps")


def segment_count(stream: TimedWriteStream) -> int:
    """Replay segments of a stream: the unit of work of extraction and rendering."""
    return sum(1 for _ in apu.iter_segments(stream))


def _text_frames(text: bytes) -> int:
    return int(text[:text.index(b"\n")].split()[3])


def _kept_runs(timeline: apu.Timeline, n_frames: int) -> int:
    """Timeline runs that at least one 24 Hz sample point lands in."""
    points = [k * SAMPLE_RATE // int(RATE_HZ) for k in range(n_frames)]
    starts = [start for start, _frame in timeline.changes]
    ends = starts[1:] + [timeline.total_samples]
    hit = 0
    for a, b in zip(starts, ends):
        i = bisect_left(points, a)
        hit += i < len(points) and points[i] < b
    return hit


def count(job: Job, out) -> dict:
    """Deterministic work counts of one operation, from its input and output."""
    c = dict.fromkeys(COUNTS, 0)
    if isinstance(out, Rendered):
        if isinstance(job.input, bytes):
            c["vgm.bytes"], c["vgm.writes"] = len(job.input), len(out.stream.writes)
        else:
            c["score.frames"] = len(job.input.frames)
        c["synth.samples"] = out.stream.total_samples
        c["synth.writes"] = len(out.stream.writes)
        c["apu.segments"] = segment_count(out.stream)
    elif isinstance(out, Converted):
        c["vgm.bytes"], c["vgm.writes"] = len(job.input), len(out.stream.writes)
        c["apu.segments"] = segment_count(out.stream)
        c["apu.timeline_changes"] = len(out.timeline.changes)
        c["score.frames"] = len(out.score.frames)
        c["score.downsample.kept_runs"] = _kept_runs(out.timeline, len(out.score.frames))
        c["midi.bytes"] = len(out.midi)
    else:
        train, test = job.input
        c["score.frames"] = c["evaluation.timesteps"] = sum(map(_text_frames, train + test))
    return c


WORKLOADS = ("score-render", "vgm-render", "vgm-convert", "corpus-eval")
