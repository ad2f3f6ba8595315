"""The score writers against the per-frame references in reference_writers,
and the per-voice change rule the writes and MIDI writers schedule by."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writers as reference
from conftest import random_score
from nesscore import apu
from nesscore import score as score_module
from nesscore.midi import score_to_midi
from nesscore.score import VOICE_COLUMNS, ExpressiveScore, voice_changes, write_score_text
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
        assert write_score_text(score) == reference.write_score_text(score)

    @pytest.mark.parametrize("rate", [0.5, 0.02, 1e-4])
    def test_long_deltas(self, rate):
        # frames of 88200, 2205000 and 441000000 ticks: deltas of 3 and 4 VLQ
        # bytes, and deltas past 0x0FFFFFFF, which empty text metas carry in part
        score = random_score(random.Random(3), 9, rate_hz=rate, hold=0.3)
        assert score_to_midi(score) == reference.score_to_midi(score)

    @pytest.mark.parametrize("n_frames", [0, 1, 2, 3, 4, 7, 9, 10])
    def test_text_in_blocks(self, monkeypatch, n_frames):
        # blocks of 3 lines, so that a score fills several, the last partly
        monkeypatch.setattr(score_module, "_BLOCK_FRAMES", 3)
        score = random_score(random.Random(n_frames), n_frames, hold=0.5)
        assert write_score_text(score) == reference.write_score_text(score)

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
