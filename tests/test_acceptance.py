"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import random
import time

import numpy as np

from conftest import random_score, timeline_of
from nesscore import apu, evaluation as ev, midi, synth, vgm
from nesscore.apu import extract_timeline
from nesscore.score import (
    ExpressiveFrame,
    ExpressiveScore,
    downsample,
    read_score_text,
    voice_state_space,
    write_score_text,
)
from nesscore.synth import lfsr_step, render_writes, score_to_writes
from nesscore.vgm import TimedWrite, TimedWriteStream, flatten_to_writes, parse_vgm, write_vgm


@contextlib.contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number:2d}: PASS  {description} ({elapsed:.2f}s)")


def test_criterion_01_separated_random_nll():
    with criterion(1, "separated random NLL 4.36/4.36/4.49/2.83, aggregate 16.04"):
        corpus = [random_score(random.Random(0), 100)]
        started = time.perf_counter()
        model = ev.fit("random", [], "separated")
        report = ev.evaluate(model, corpus, "separated")
        elapsed = time.perf_counter() - started
        expected = {"P1": 4.36, "P2": 4.36, "TR": 4.49, "NO": 2.83}
        for cat in report.categories:
            assert abs(cat.nll_all - expected[cat.category]) <= 0.005
            assert abs(cat.nll_poi - expected[cat.category]) <= 0.005
        assert abs(report.nll_all - 16.04) <= 0.005
        assert abs(report.nll_poi - 16.04) <= 0.005
        assert elapsed < 1.0


def test_criterion_02_expressive_random_nll_and_accuracy():
    with criterion(2, "expressive random NLL 2.77x3 + 1.39x2 = 11.09, "
                      "accuracy mean 0.138 on a uniform corpus"):
        rng = np.random.default_rng(1)
        n = 100_000
        cols = np.zeros((n, 10), dtype=np.int64)
        cols[:, 1] = rng.integers(0, 16, n)   # V_P1
        cols[:, 4] = rng.integers(0, 16, n)   # V_P2
        cols[:, 8] = rng.integers(0, 16, n)   # V_NO
        cols[:, 2] = rng.integers(0, 4, n)    # T_P1
        cols[:, 5] = rng.integers(0, 4, n)    # T_P2
        frames = [ExpressiveFrame(*row) for row in cols.tolist()]
        corpus = [ExpressiveScore(24.0, frames)]
        report = ev.evaluate(ev.fit("random", [], "expressive"), corpus, "expressive")
        expected = {"V_P1": 2.77, "V_P2": 2.77, "V_NO": 2.77,
                    "T_P1": 1.39, "T_P2": 1.39}
        for cat in report.categories:
            assert abs(cat.nll_all - expected[cat.category]) <= 0.005
        assert abs(report.nll_all - 11.09) <= 0.005
        assert abs(report.acc_all - 0.138) <= 0.02


def test_criterion_03_blended_random_nll():
    with criterion(3, "blended random NLL = 88*ln(2) = 61.00"):
        corpus = [random_score(random.Random(2), 200)]
        report = ev.evaluate(ev.fit("random", [], "blended"), corpus, "blended")
        assert abs(report.nll_all - 61.00) <= 0.01
        assert abs(report.nll_poi - 61.00) <= 0.01


def test_criterion_04_bigram_poi_accuracy_zero():
    with criterion(4, "bigram accuracy at POIs is exactly 0.000 on every corpus"):
        for seed in range(25):
            rng = random.Random(seed)
            corpus = [random_score(rng, rng.randint(2, 60), hold=rng.random())
                      for _ in range(rng.randint(1, 4))]
            for task in ("separated", "expressive"):
                model = ev.fit("bigram", corpus, task)
                report = ev.evaluate(model, corpus, task)
                assert report.acc_poi == 0.0
                assert all(c.acc_poi == 0.0 for c in report.categories)


def test_criterion_05_state_space_sizes():
    with criterion(5, "enumerated voice state spaces are 4621 / 89 / 481"):
        assert len(voice_state_space("P1")) == 4621
        assert len(voice_state_space("P2")) == 4621
        assert len(voice_state_space("TR")) == 89
        assert len(voice_state_space("NO")) == 481


def test_criterion_06_round_trip_suite():
    with criterion(6, "round trips: VGM bytes, score text, MIDI, "
                      "and 200x score->writes->extraction"):
        rng = random.Random(3)
        # (a) VGM byte round trip
        for _ in range(50):
            writes, offset = [], 0
            for _w in range(rng.randint(0, 30)):
                offset += rng.randint(0, 5000)
                writes.append(TimedWrite(offset, 0x4000 + rng.randint(0, 0x17),
                                         rng.randint(0, 255)))
            stream = TimedWriteStream(writes, total_samples=offset + rng.randint(0, 2000))
            assert flatten_to_writes(parse_vgm(write_vgm(stream))) == stream
        # (b) NESSCORE text round trip
        for _ in range(50):
            score = random_score(rng, rng.randint(0, 50))
            assert read_score_text(write_score_text(score)) == score
        # (c) MIDI round trip at matched rates
        for _ in range(50):
            score = random_score(rng, rng.randint(0, 40))
            assert midi.midi_to_score(midi.score_to_midi(score), 24.0) == score
        # (d) end-to-end synthesis/extraction identity
        for i in range(200):
            score = random_score(rng, rng.randint(1, 20))
            stream = score_to_writes(score)
            got = downsample(extract_timeline(stream), 24.0)
            assert got == score, f"end-to-end mismatch on score {i}"


def _fundamental(samples: np.ndarray) -> float:
    x = samples - samples.mean()
    n = len(x)
    spectrum = np.fft.rfft(x, 2 * n)
    r = np.fft.irfft(spectrum * np.conj(spectrum))[:n]
    lo, hi = int(44100 / 2000), int(44100 / 20)
    lag = lo + int(np.argmax(r[lo:hi]))
    a, b, c = r[lag - 1], r[lag], r[lag + 1]
    if a - 2 * b + c:
        lag = lag + 0.5 * (a - c) / (a - 2 * b + c)
    return 44100.0 / lag


def test_criterion_07_synthesis_pitch():
    with criterion(7, "rendered pitches within 1 Hz of 440.35 / 220.20"):
        started = time.perf_counter()
        pulse = ExpressiveScore(24.0, [ExpressiveFrame(p1_note=69, p1_vel=15,
                                                       p1_timbre=2)] * 24)
        buf = render_writes(score_to_writes(pulse))
        assert abs(_fundamental(buf) - apu.CPU_HZ / (16 * 254)) <= 1.0
        tri = ExpressiveScore(24.0, [ExpressiveFrame(tr_note=57)] * 24)
        buf = render_writes(score_to_writes(tri))
        assert abs(_fundamental(buf) - apu.CPU_HZ / (32 * 254)) <= 1.0
        assert time.perf_counter() - started < 5.0


def test_criterion_08_lfsr_period():
    with criterion(8, "mode-0 noise LFSR period is exactly 32767"):
        state = 1
        period = 0
        seen_zero = False
        for step in range(1, 40000):
            state = lfsr_step(state, 0)
            seen_zero |= state == 0
            if state == 1:
                period = step
                break
        assert period == 32767
        assert not seen_zero


def test_criterion_09_polyphony_identity():
    with criterion(9, "average polyphony == sum of on-probabilities"):
        rng = random.Random(4)
        for _ in range(20):
            corpus = [random_score(rng, rng.randint(1, 80))
                      for _ in range(rng.randint(1, 5))]
            stats = ev.corpus_stats(corpus)
            assert abs(stats.average_polyphony
                       - sum(stats.on_probability.values())) <= 1e-12


def test_criterion_10_downsampling_contract():
    with criterion(10, "44100 samples -> exactly 24 frames; stable notes "
                       "of >= 1838 samples are never dropped"):
        frame = ExpressiveFrame(tr_note=60)
        tl = timeline_of(total_samples=44100, changes=[(0, frame)])
        score = downsample(tl, 24.0)
        assert len(score.frames) == 24
        assert all(f == frame for f in score.frames)

        rng = random.Random(5)
        for _ in range(40):
            changes, pos = [], 0
            for i in range(rng.randint(1, 10)):
                changes.append((pos, ExpressiveFrame(tr_note=21 + i)))
                pos += 1838 * rng.randint(1, 3)
            tl = timeline_of(total_samples=pos, changes=changes)
            sampled = set(downsample(tl, 24.0).frames)
            for _s, f in changes:
                assert f in sampled, "a stable note was dropped"
