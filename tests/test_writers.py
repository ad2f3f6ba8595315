"""Both score writers against the per-frame references in reference_writers,
and the per-voice change rule they schedule by."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writers as reference
from conftest import random_score
from nesscore import apu
from nesscore.midi import score_to_midi
from nesscore.score import VOICE_COLUMNS, ExpressiveScore, voice_changes
from nesscore.synth import score_to_writes

RATES = [24.0, 29.97, 60.0, 1000.0, 44099.9, 44100.0]


def outcome(writer, score):
    """What a writer returns, or the type and message of the ValueError it raises."""
    try:
        return writer(score)
    except ValueError as exc:
        return type(exc), str(exc)


class TestVoiceChanges:
    def test_hand_built_voice(self):
        values = np.zeros((5, 10), np.int16)
        values[:, VOICE_COLUMNS["P1"]] = [
            (0, 0, 0), (60, 5, 1), (60, 6, 1), (62, 6, 2), (62, 6, 3)]
        changes = voice_changes(values, "P1")
        assert changes.now[:, -1].tolist() == [0, 0, 0]     # frame T is silent
        assert changes.before[0].tolist() == [0, 0, 60, 60, 62, 62]
        assert changes.onset.tolist() == [False, True, False, True, False, False]
        assert changes.release.tolist() == [False, False, False, True, False, True]
        assert changes.changed.tolist() == [[False, False, True, False, False, False],
                                            [False, False, False, False, True, False]]

    def test_voice_without_dynamics(self):
        values = np.zeros((3, 10), np.int16)
        values[:, VOICE_COLUMNS["TR"]] = [(40,), (40,), (41,)]
        changes = voice_changes(values, "TR")
        assert changes.changed.shape == (0, 4)
        assert changes.onset.tolist() == [True, False, True, False]
        assert changes.release.tolist() == [False, False, True, True]


class TestWritersAgainstReference:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60), st.floats(0, 1),
           st.sampled_from(RATES))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_random_scores(self, seed, n_frames, hold, rate):
        score = random_score(random.Random(seed), n_frames, rate_hz=rate, hold=hold)
        assert score_to_writes(score) == reference.score_to_writes(score)
        assert score_to_midi(score) == reference.score_to_midi(score)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.floats(0, 1),
           st.sampled_from(RATES),
           st.lists(st.tuples(st.integers(0, 59),
                              st.sampled_from([("P1",), ("P2",), ("P1", "P2")])),
                    min_size=1, max_size=4))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_pulse_note_32(self, seed, n_frames, hold, rate, places):
        # no 11-bit timer sounds pulse note 32, so score_to_writes refuses its first frame
        values = random_score(random.Random(seed), n_frames, rate, hold).to_array().copy()
        for frame, voices in places:
            for voice in voices:
                note, vel, _timbre = VOICE_COLUMNS[voice]
                values[frame % n_frames, note] = 32
                values[frame % n_frames, vel] = max(1, values[frame % n_frames, vel])
        score = ExpressiveScore(rate, values)
        got = outcome(score_to_writes, score)
        assert got == outcome(reference.score_to_writes, score)
        assert got[0] is apu.NoteOutOfRange
        assert score_to_midi(score) == reference.score_to_midi(score)
