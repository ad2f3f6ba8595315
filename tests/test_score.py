"""Score containers, downsampling, conversions, text format and the split."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import mutate, random_score, timeline_of
from nesscore import score as score_module
from nesscore.midi import _frame_tick, midi_to_score, score_to_midi
from nesscore.score import (
    MAX_FRAMES,
    MAX_TOTAL_SAMPLES,
    SAMPLE_RATE,
    SCHEMA,
    VOICE_COLUMNS,
    _FIELDS,
    BadFieldValue,
    BlendedScore,
    CorpusEntry,
    ExpressiveFrame,
    ExpressiveScore,
    MalformedHeader,
    SeparatedScore,
    check_frames,
    check_rate,
    downsample,
    frame_count,
    frame_position,
    frame_sample_index,
    read_score_text,
    split_corpus,
    to_blended,
    to_separated,
    validate,
    voice_state_space,
    write_score_text,
)
from nesscore.synth import score_to_writes
from reference_downsample import downsample_by_frame
import reference_frames as ref
from reference_reader import read_score_text_by_line
from reference_validate import validate_by_frame

A_FRAME = ExpressiveFrame(p1_note=69, p1_vel=12, p1_timbre=2, tr_note=57,
                          no_note=12, no_vel=9, no_timbre=1)


def constant_timeline(total, frame=A_FRAME):
    return timeline_of(total_samples=total, changes=[(0, frame)])


class TestDownsample:
    def test_one_second_is_24_frames(self):
        score = downsample(constant_timeline(44100), 24)
        assert len(score.frames) == 24
        assert all(f == A_FRAME for f in score.frames)

    def test_two_seconds_is_48_frames(self):
        assert len(downsample(constant_timeline(88200), 24).frames) == 48

    def test_partial_trailing_frame_kept(self):
        assert len(downsample(constant_timeline(44101), 24).frames) == 25

    def test_change_lands_in_next_frame(self):
        tl = timeline_of(total_samples=4000, changes=[(0, ExpressiveFrame()), (1000, A_FRAME)])
        score = downsample(tl, 24)
        # frame 0 samples position 0; frame 1 samples position 1837 >= 1000
        assert score.frames[0] == ExpressiveFrame()
        assert score.frames[1] == A_FRAME

    def test_empty_timeline(self):
        assert downsample(constant_timeline(0), 24).frames == []

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            downsample(constant_timeline(100), 0)

    def test_invalid_frame_rejected(self):
        # a timeline holding a frame the schema rejects gives no score
        tl = timeline_of(44100, [(0, ExpressiveFrame(p1_note=5, p1_vel=3))])
        with pytest.raises(ValueError, match=r"^frame 0: P1 note 5 outside \{0\} u \[32,108\]$"):
            downsample(tl, 24)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_stable_runs_never_skipped(self, run_lengths):
        """Any value stable for >= 1838 samples appears in the output."""
        changes = []
        pos = 0
        for i, n in enumerate(run_lengths):
            frame = ExpressiveFrame(tr_note=21 + i)
            changes.append((pos, frame))
            pos += n * 1838
        tl = timeline_of(total_samples=pos, changes=changes)
        sampled = set(downsample(tl, 24).frames)
        assert {f for _s, f in changes} <= sampled


@st.composite
def timelines(draw):
    """A timeline of up to 8 changes, the first of them at any sample."""
    total = draw(st.integers(0, 20_000))
    starts = sorted(draw(st.sets(st.integers(0, total), max_size=8)))
    pool = [ExpressiveFrame(), A_FRAME, ExpressiveFrame(tr_note=40),
            ExpressiveFrame(no_note=3, no_vel=7)]
    return timeline_of(total, [(s, draw(st.sampled_from(pool))) for s in starts])


class TestDownsampleAgainstReference:
    """The vectorised downsample against the per-frame one in reference_downsample."""

    @given(timelines(), st.sampled_from([24, 24.0, 12.5, 29.97, 60.0, 44100.0]))
    @example(timeline_of(0, [(0, A_FRAME)]), 24)
    @example(timeline_of(0, []), 29.97)
    @example(timeline_of(5000, [(1000, A_FRAME), (3000, ExpressiveFrame())]), 12.5)
    @example(timeline_of(5000, [(1837, A_FRAME)]), 24)
    @settings(max_examples=150)
    def test_same_score(self, timeline, rate):
        assert downsample(timeline, rate) == downsample_by_frame(timeline, rate)

    def test_first_change_after_sample_0_is_preceded_by_silence(self):
        tl = timeline_of(total_samples=4000, changes=[(1000, A_FRAME)])
        assert downsample(tl, 24).frames == [ExpressiveFrame(), A_FRAME, A_FRAME]


class TestArrayStore:
    def test_to_array_is_read_only(self, rng):
        built = random_score(rng, 5)
        for score in (built, read_score_text(write_score_text(built))):
            with pytest.raises(ValueError):
                score.to_array()[0, 0] = 1

    def test_list_and_array_built_scores_equal(self, rng):
        frames = random_score(rng, 30).frames
        values = np.array(frames, dtype=np.int16)
        assert ExpressiveScore(24.0, frames) == ExpressiveScore(24.0, values)
        assert np.array_equal(ExpressiveScore(24.0, frames).to_array(), values)

    def test_input_array_is_copied(self):
        values = np.zeros((2, 10), dtype=np.int16)
        score = ExpressiveScore(24.0, values)
        values[0, 6] = 40
        assert score.frames == [ExpressiveFrame(), ExpressiveFrame()]
        assert values.flags.writeable and not np.shares_memory(values, score.to_array())

    def test_readers_keep_the_array_they_build(self, rng, monkeypatch):
        # Each reader hands its fresh array to the score, read-only and not copied.
        built = random_score(rng, 30)
        timeline = timeline_of(SAMPLE_RATE, [(0, A_FRAME)])
        text, midi = write_score_text(built), score_to_midi(built)
        body = []
        read_body = score_module._read_body

        def kept_body(*args):
            body.append(read_body(*args))
            return body[-1]

        monkeypatch.setattr(score_module, "_read_body", kept_body)
        monkeypatch.setattr(ExpressiveScore, "__init__", None)    # the copying constructor
        scores = [read_score_text(text), midi_to_score(midi, built.rate_hz),
                  downsample(timeline, 24)]
        assert scores[:2] == [built, built] and np.shares_memory(scores[0].to_array(), body[0])
        for score in scores:
            with pytest.raises(ValueError):
                score.to_array()[0, 0] = 1

    def test_frames_view(self, rng):
        frames = random_score(rng, 30).frames
        view = ExpressiveScore(24.0, np.array(frames, dtype=np.int16)).frames
        assert view == frames
        assert all(type(f) is ExpressiveFrame for f in view)
        assert ExpressiveScore(24.0, []).frames == []

    def test_repr_is_bounded(self, rng):
        small = random_score(rng, 4)
        assert eval(repr(small), {**vars(np), "ExpressiveScore": ExpressiveScore}) == small
        large = ExpressiveScore(24.0, np.zeros((2 ** 20, 10), np.int16))
        assert len(repr(large)) < 1000 and "..." in repr(large)

    def test_len(self):
        assert len(ExpressiveScore(24.0, [A_FRAME] * 3)) == 3
        assert len(ExpressiveScore()) == 0

    def test_rates_compared(self):
        assert ExpressiveScore(24.0, [A_FRAME]) != ExpressiveScore(12.0, [A_FRAME])
        assert ExpressiveScore(24.0, [A_FRAME]) != ExpressiveScore(24.0, [ExpressiveFrame()])
        assert ExpressiveScore(24, [A_FRAME]) == ExpressiveScore(24.0, [A_FRAME])

    @pytest.mark.parametrize("frames", [
        np.zeros((3, 9), np.int16), np.zeros(10, np.int16), np.zeros((2, 5, 2), np.int16),
        [(1, 2, 3)], [A_FRAME, (0,) * 9], [0] * 10,
        # values int16 cannot hold must not wrap into valid ones (65605 -> 69)
        np.full((1, 10), 65605), np.full((1, 10), 1.5), [(0,) * 9 + (65605,)],
        # under the suite's warnings-as-errors filter: a cast to int16 of these
        # warns "invalid value encountered in cast"
        *(np.full((2, 10), value) for value in (np.nan, np.inf, -np.inf, 1e10, -1e10, 32768.0)),
    ])
    def test_bad_frames_rejected(self, frames):
        with pytest.raises(ValueError):
            ExpressiveScore(24.0, frames)

    def test_floats_int16_holds_accepted(self):
        values = np.zeros((2, 10))
        values[0, :3] = [69, 15, 2]
        assert ExpressiveScore(24.0, values) == ExpressiveScore(24.0, values.astype(np.int16))


class TestConversions:
    def test_to_separated_projects_notes(self):
        score = ExpressiveScore(24.0, [A_FRAME, ExpressiveFrame()])
        sep = to_separated(score)
        assert sep.notes.shape == (4, 2)
        assert sep.notes[:, 0].tolist() == [69, 0, 57, 12]
        assert sep.notes[:, 1].tolist() == [0, 0, 0, 0]

    def test_to_separated_empty(self):
        assert to_separated(ExpressiveScore(24.0, [])).notes.shape == (4, 0)

    def test_blended_unisons_collapse(self):
        sep = to_separated(ExpressiveScore(24.0, [ExpressiveFrame(
            p1_note=69, p1_vel=1, p2_note=69, p2_vel=1, no_note=5, no_vel=1)]))
        grid = to_blended(sep).grid
        assert grid.sum() == 1
        assert grid[69 - 21, 0] == 1

    def test_blended_discards_noise(self):
        sep = to_separated(ExpressiveScore(24.0, [ExpressiveFrame(
            no_note=16, no_vel=9)]))
        assert to_blended(sep).grid.sum() == 0

    def test_blended_three_voices(self):
        sep = to_separated(ExpressiveScore(24.0, [ExpressiveFrame(
            p1_note=32, p1_vel=1, p2_note=60, p2_vel=1, tr_note=108)]))
        grid = to_blended(sep).grid
        assert grid.sum() == 3
        assert {int(r) for r in np.nonzero(grid[:, 0])[0]} == {11, 39, 87}

    def test_blended_never_exceeds_three(self, rng):
        for _ in range(50):
            grid = to_blended(to_separated(random_score(rng, 40))).grid
            assert grid.sum(axis=0).max(initial=0) <= 3

    @pytest.mark.parametrize("voice, note", [(0, 5), (0, 20), (1, 109), (2, 120), (2, -3)])
    def test_blended_refuses_notes_off_the_grid(self, voice, note):
        # note 5 used to wrap round to key 93; note 120 was a bare IndexError
        notes = np.zeros((4, 3), np.int16)
        notes[:3, 0] = 60
        notes[voice, 2] = note
        name = ("P1", "P2", "TR")[voice]
        with pytest.raises(ValueError,
                           match=rf"^frame 2: {name} note {note} outside \{{0\}} u \[21,108\]$"):
            to_blended(SeparatedScore(24.0, notes))

    def test_blended_names_the_first_frame_then_voice(self):
        notes = np.zeros((4, 3), np.int16)
        notes[1, 1], notes[0, 2], notes[2, 1] = 5, 6, 7
        with pytest.raises(ValueError, match="^frame 1: P2 note 5 "):
            to_blended(SeparatedScore(24.0, notes))

    def test_blended_keeps_grid_edges_and_ignores_noise(self):
        notes = np.array([[21, 0], [108, 0], [0, 60], [200, 99]], np.int16)
        grid = to_blended(SeparatedScore(24.0, notes)).grid
        assert np.flatnonzero(grid[:, 0]).tolist() == [0, 87]
        assert np.flatnonzero(grid[:, 1]).tolist() == [39]

    @pytest.mark.parametrize("shape", [(1, 5), (3, 5), (5, 5), (4,), (4, 5, 1)])
    def test_blended_refuses_notes_not_4_by_t(self, shape):
        with pytest.raises(ValueError, match=r"^notes are not 4 x T: shape "):
            to_blended(SeparatedScore(24.0, np.zeros(shape, np.int16)))

    def test_separated_and_blended_equality(self):
        notes = np.array([[69], [0], [57], [12]], np.int16)
        separated = SeparatedScore(24.0, notes)
        assert separated == SeparatedScore(24.0, notes.copy())
        assert separated != SeparatedScore(12.0, notes)
        assert separated != SeparatedScore(24.0, notes + 1)
        assert separated != to_blended(separated)
        blended = to_blended(separated)
        assert blended == BlendedScore(24.0, blended.grid.copy())
        assert blended != BlendedScore(12.0, blended.grid)
        assert blended != BlendedScore(24.0, 1 - blended.grid)
        assert blended != separated and blended != blended.grid.tolist()


class TestValidate:
    def test_valid_score(self, rng):
        assert validate(random_score(rng, 50)) == []

    def test_pulse_floor(self):
        score = ExpressiveScore(24.0, [ExpressiveFrame(p1_note=31, p1_vel=5)])
        diags = validate(score)
        assert len(diags) == 1
        assert diags[0].voice == "P1" and diags[0].frame_index == 0

    def test_off_state_canonicalization(self):
        score = ExpressiveScore(24.0, [ExpressiveFrame(p1_note=0, p1_vel=3)])
        diags = validate(score)
        assert len(diags) == 1 and "off state" in diags[0].message

    def test_sounding_zero_velocity(self):
        score = ExpressiveScore(24.0, [ExpressiveFrame(no_note=4, no_vel=0)])
        assert len(validate(score)) == 1

    def test_range_violations(self):
        frame = ExpressiveFrame(p1_note=40, p1_vel=16, p1_timbre=4, tr_note=120,
                                no_note=17, no_vel=1)
        messages = [d.voice for d in validate(ExpressiveScore(24.0, [frame]))]
        assert messages.count("P1") == 2 and "TR" in messages and "NO" in messages

    # Values near every bound, 0 and the int16 extremes; a field drawn at random
    # from them makes valid and invalid voices about equally common.
    VALUES = st.one_of(st.just(0), st.integers(-2, 20), st.integers(19, 110),
                       st.sampled_from([-32768, -1, 109, 32767]))

    @given(arrays(np.int16, st.tuples(st.integers(0, 12), st.just(10)), elements=VALUES))
    @settings(max_examples=400)
    def test_same_diagnostics_as_reference(self, values):
        score = ExpressiveScore(24.0, values)
        expected = validate_by_frame(score)
        assert validate(score) == expected
        if not expected:
            check_frames(score)
            return
        first = expected[0]
        with pytest.raises(ValueError) as exc:
            check_frames(score)
        assert str(exc.value) == f"frame {first.frame_index}: {first.voice} {first.message}"

    @pytest.mark.parametrize("seed", range(4))
    def test_diagnostics_across_blocks(self, monkeypatch, seed):
        # blocks of 4 frames, so that diagnostics come from several
        monkeypatch.setattr(score_module, "_BLOCK_FRAMES", 4)
        rng = np.random.default_rng(seed)
        values = rng.choice(np.array([0, 1, 5, 21, 40, 109], np.int16), (rng.integers(0, 19), 10))
        score = ExpressiveScore(24.0, values)
        assert validate(score) == validate_by_frame(score)

    @pytest.mark.parametrize("faulty, blocks", [(slice(None), 1), (slice(-1, None), 32)],
                             ids=["every-frame", "last-frame"])
    def test_check_frames_stops_at_the_first_faulty_block(self, monkeypatch, faulty, blocks):
        # 2^21 frames, 32 blocks, with a P1 velocity while the note is off in
        # every frame, or in the last only
        values = np.zeros((1 << 21, 10), np.int16)
        values[faulty, 1] = 5
        score = ExpressiveScore(24.0, values)

        class CountedBlocks(np.ndarray):
            """Counts the blocks of frames sliced from it."""
            taken = 0

            def __getitem__(self, key):
                CountedBlocks.taken += isinstance(key, slice)
                return super().__getitem__(key)

        monkeypatch.setattr(score, "to_array", lambda: values.view(CountedBlocks))
        with pytest.raises(ValueError, match="P1 off state"):
            check_frames(score)
        assert CountedBlocks.taken == blocks

    @pytest.mark.parametrize("voice, maxima", [("P1", (108, 15, 3)), ("P2", (108, 15, 3)),
                                               ("TR", (108,)), ("NO", (16, 15, 1))])
    def test_state_space_is_what_validate_accepts(self, voice, maxima):
        # every combination of the voice's field values within the reader's bounds
        states = np.indices([hi + 1 for hi in maxima]).reshape(len(maxima), -1).T
        values = np.zeros((len(states), 10), np.int16)
        values[:, VOICE_COLUMNS[voice]] = states
        rejected = {d.frame_index for d in validate(ExpressiveScore(24.0, values))}
        accepted = {tuple(state) for i, state in enumerate(states.tolist()) if i not in rejected}
        assert accepted == voice_state_space(voice)
        assert len(SCHEMA[voice]) == len(maxima)

    def test_state_space_of_an_unknown_voice(self):
        with pytest.raises(ValueError, match="^unknown voice 'XX'$"):
            voice_state_space("XX")

    def test_frame_layout_derived_from_the_schema(self):
        # the column order NESSCORE lines and MIDI tracks depend on
        assert VOICE_COLUMNS == {"P1": (0, 1, 2), "P2": (3, 4, 5), "TR": (6,), "NO": (7, 8, 9)}
        # the typed NamedTuple names the same columns, in the schema's order
        assert ExpressiveFrame._fields == tuple(
            f"{voice.lower()}_{name}" for voice, name, _values in _FIELDS)
        assert ExpressiveFrame() == (0,) * 10


class TestTextFormat:
    def test_round_trip(self, rng):
        score = random_score(rng, 30)
        assert read_score_text(write_score_text(score)) == score

    def test_empty_score_is_header_only(self):
        data = write_score_text(ExpressiveScore(24.0, []))
        assert data == b"NESSCORE 1 24 0\n"
        assert read_score_text(data) == ExpressiveScore(24.0, [])

    def test_known_line(self):
        data = write_score_text(ExpressiveScore(24.0, [A_FRAME]))
        assert data.split(b"\n")[1] == b"69 12 2 0 0 0 57 12 9 1"

    def test_fractional_rate_round_trips(self):
        score = ExpressiveScore(12.5, [A_FRAME])
        assert read_score_text(write_score_text(score)).rate_hz == 12.5

    def test_rate_zero_rejected(self):
        with pytest.raises(MalformedHeader):
            read_score_text(b"NESSCORE 1 0 0\n")

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            read_score_text(b"SCORE 1 24 0\n")

    def test_empty_file(self):
        with pytest.raises(MalformedHeader, match="^empty file$"):
            read_score_text(b"")

    def test_negative_frame_count_rejected(self):
        with pytest.raises(MalformedHeader, match="^frame count -1 out of range$"):
            read_score_text(b"NESSCORE 1 24 -1\n")

    def test_frame_count_mismatch(self):
        with pytest.raises(MalformedHeader):
            read_score_text(b"NESSCORE 1 24 2\n0 0 0 0 0 0 0 0 0 0\n")

    def test_bad_field_reports_line(self):
        data = b"NESSCORE 1 24 2\n0 0 0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0 0 x\n"
        with pytest.raises(BadFieldValue) as exc:
            read_score_text(data)
        assert exc.value.line_number == 3

    def test_out_of_range_field(self):
        with pytest.raises(BadFieldValue):
            read_score_text(b"NESSCORE 1 24 1\n200 5 0 0 0 0 0 0 0 0\n")

    def test_alphabet_gap_left_to_validate(self):
        # within the field bounds, the {0} u [32,108] gap is a schema rule
        # that validate() diagnoses and the reader enforces
        data = b"NESSCORE 1 24 1\n31 5 0 0 0 0 0 0 0 0\n"
        assert len(validate(read_score_text_by_line(data))) == 1
        with pytest.raises(BadFieldValue) as exc:
            read_score_text(data)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("line, message", [
        (b"5 3 0 0 0 0 0 0 0 0", "P1 note 5 outside {0} u [32,108]"),
        (b"60 0 0 0 0 0 0 0 0 0", "P1 sounding note with velocity 0"),
        (b"0 3 1 0 0 0 0 0 0 0", "P1 off state must be (0, 0, 0)"),
        (b"0 0 0 0 0 0 5 0 0 0", "TR note 5 outside {0} u [21,108]"),
    ])
    def test_invalid_frame_rejected_with_line(self, line, message):
        # each line is within the field bounds, so the line-by-line reference reads it
        good = b"0 0 0 0 0 0 0 0 0 0"
        data = b"NESSCORE 1 24 3\n" + b"\n".join([good, line, line]) + b"\n"
        assert validate(read_score_text_by_line(data))[0].frame_index == 1
        with pytest.raises(BadFieldValue) as exc:
            read_score_text(data)
        assert exc.value.line_number == 3 and str(exc.value) == f"line 3: {message}"

    def test_bad_field_wins_over_an_earlier_invalid_frame(self):
        # the grammar and field bounds are checked over the whole body first
        data = b"NESSCORE 1 24 2\n5 3 0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0 0 x\n"
        with pytest.raises(BadFieldValue) as exc:
            read_score_text(data)
        assert exc.value.line_number == 3

    @given(st.integers(0, 40), st.sampled_from([24.0, 12.0, 60.0, 29.97]))
    @settings(max_examples=40)
    def test_round_trip_property(self, n, rate):
        rng = random.Random(n)
        score = random_score(rng, n, rate_hz=rate)
        assert read_score_text(write_score_text(score)) == score

    @pytest.mark.parametrize("head", [b"NESSCORE 1 nan 1", b"NESSCORE 1 inf 1",
                                      b"NESSCORE 1 1e-9 1", b"NESSCORE 1 5e-324 1",
                                      b"NESSCORE 1 44101 1", b"NESSCORE 1 1e12 1"])
    def test_unusable_rate_rejected(self, head):
        # 1e-9 Hz asks for 4.4e13 samples; 5e-324 Hz for infinitely many;
        # above 44100 Hz a frame is shorter than a sample
        with pytest.raises(MalformedHeader):
            read_score_text(head + b"\n0 0 0 0 0 0 0 0 0 0\n")

    def test_sample_limit_is_32_bits(self):
        line = b"\n0 0 0 0 0 0 0 0 0 0\n"
        assert frame_sample_index(1, 0.0000103) <= 0xFFFFFFFF
        assert read_score_text(b"NESSCORE 1 0.0000103 1" + line).rate_hz == 0.0000103
        assert frame_sample_index(1, 0.0000102) > 0xFFFFFFFF
        with pytest.raises(MalformedHeader):
            read_score_text(b"NESSCORE 1 0.0000102 1" + line)

    def test_header_not_utf8(self):
        with pytest.raises(MalformedHeader):
            read_score_text(b"NESSCORE 1 24\xff 0\n")

    def test_non_ascii_body_byte_names_line(self):
        data = b"NESSCORE 1 24 2\n0 0 0 0 0 0 0 0 0 0\n0 0 0 0 \xff 0 0 0 0 0\n"
        with pytest.raises(BadFieldValue) as exc:
            read_score_text(data)
        assert exc.value.line_number == 3


def outcome(reader, data: bytes):
    """The score a reader returns, or the type and line of its domain error."""
    try:
        return reader(data)
    except (MalformedHeader, BadFieldValue) as exc:
        return type(exc), getattr(exc, "line_number", None)


def plain_decimal(data: bytes) -> bool:
    """ASCII, and every body field made of ASCII digits only."""
    body = data.replace(b"\r\n", b"\n").partition(b"\n")[2]
    return data.isascii() and not body.translate(None, b"0123456789 \n")


EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                 st.integers(0, 10_000),
                 st.one_of(st.sampled_from(b"0123456789 \n\r\t+-."), st.integers(0, 255)))


class TestReaderAgainstReference:
    """The vectorised reader against the line-by-line one in reference_reader."""

    @given(st.integers(0, 2**32), st.integers(0, 60),
           st.sampled_from([24.0, 12.0, 60.0, 29.97, 0.5, 44100.0]))
    @settings(max_examples=60)
    def test_round_trip(self, seed, n, rate):
        score = random_score(random.Random(seed), n, rate_hz=rate)
        data = write_score_text(score)
        assert read_score_text(data) == score == read_score_text_by_line(data)
        assert np.array_equal(score.to_array(),
                              np.asarray(score.frames, dtype=np.int16).reshape(-1, 10))

    @given(st.integers(0, 2**32), st.integers(0, 6), st.lists(EDIT, min_size=1, max_size=4))
    @settings(derandomize=True, max_examples=400)
    def test_byte_mutations(self, seed, n, edits):
        data = mutate(write_score_text(random_score(random.Random(seed), n)), edits)
        got = outcome(read_score_text, data)   # raises on any other error type
        if isinstance(got, ExpressiveScore):
            assert validate(got) == []
        if plain_decimal(data):
            expected = outcome(read_score_text_by_line, data)
            if isinstance(expected, ExpressiveScore) and validate(expected):
                # the reader refuses the first frame validate rejects, at its line
                expected = BadFieldValue, validate(expected)[0].frame_index + 2
            assert got == expected

    @pytest.mark.parametrize("body, line", [
        # the body's first field at widths 0-4: its places left of the body
        # wrap to the body's final newline
        (b" 0 0 0 0 0 0 0 0 0\n", 2),
        (b"0 0 0 0 0 0 0 0 0 0\n", None),
        (b"5 12 2 0 0 0 0 0 0 0\n", 2),
        (b"69 12 2 0 0 0 0 0 0 0\n", None),
        (b"108 15 3 0 0 0 0 0 0 0\n", None),
        (b"0069 12 2 0 0 0 0 0 0 0\n", None),
        (b"1069 12 2 0 0 0 0 0 0 0\n", 2),
        # a longer field is read from its last three digits and its leading zeros
        (b"0 0 0 0 0 0 0000 0 0 0\n", None),
        (b"0 0 0 0 0 0 0108 0 0 0\n", None),
        (b"0 0 0 0 0 0 1000 0 0 0\n", 2),
        # a stray byte among a field's last three
        (b"0 0 0 0 0 0 1x2 0 0 0\n", 2),
        (b"0 0 0 0 0 0 x5 0 0 0\n", 2),
        (b"0 0 0 0 0 0 5x 0 0 0\n", 2),
        # an out-of-range field and a stray byte: the earlier line is reported
        (b"0 0 0 0 0 0 0 0 0 0\n0 0 4 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0 0 1x\n", 3),
        (b"0 0 0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0 0 1x\n0 0 4 0 0 0 0 0 0 0\n", 3),
        # no final newline, and no frames
        (b"69 12 2 0 0 0 57 12 9 1", None),
        (b"0 0 0 0 0 0 1000 0 0 0", 2),
        (b"", None),
    ])
    def test_byte_cases_of_the_whole_array_pass(self, body, line):
        data = b"NESSCORE 1 24 %d\n" % len(body.splitlines()) + body
        got = outcome(read_score_text, data)
        if line is None:
            assert isinstance(got, ExpressiveScore) and validate(got) == []
        else:
            assert got == (BadFieldValue, line)
        if plain_decimal(data):
            expected = outcome(read_score_text_by_line, data)
            if isinstance(expected, ExpressiveScore) and validate(expected):
                expected = BadFieldValue, validate(expected)[0].frame_index + 2
            assert got == expected

    @pytest.mark.parametrize("field", [b"+5", b"5\t", b"\t5", b" 5", b"5 ",
                                       "\u0665".encode(), "\uff15".encode()])
    def test_narrowed_fields_rejected_with_line(self, field):
        # int() accepts a sign, surrounding whitespace and non-ASCII digits;
        # the body grammar is ASCII digits and single spaces only
        data = b"NESSCORE 1 24 2\n0 0 0 0 0 0 0 0 0 0\n0 " + field + b" 0 0 0 0 0 0 0 0\n"
        if field.strip() == field:
            assert read_score_text_by_line(data).frames[1].p1_vel == 5
        with pytest.raises(BadFieldValue) as exc:
            read_score_text(data)
        assert exc.value.line_number == 3

    def test_crlf_line_ends_accepted(self):
        score = ExpressiveScore(24.0, [A_FRAME, ExpressiveFrame()])
        data = write_score_text(score).replace(b"\n", b"\r\n")
        assert read_score_text(data) == score == read_score_text_by_line(data)

    def test_missing_final_line_end_accepted(self):
        score = ExpressiveScore(24.0, [A_FRAME])
        data = write_score_text(score)[:-1]
        assert read_score_text(data) == score == read_score_text_by_line(data)

    def test_leading_zeros_accepted(self):
        data = b"NESSCORE 1 24 1\n069 012 2 0 0 0 0057 0 0 000\n"
        expected = ExpressiveFrame(p1_note=69, p1_vel=12, p1_timbre=2, tr_note=57)
        assert read_score_text(data).frames == [expected]
        assert read_score_text_by_line(data).frames == [expected]

    @pytest.mark.parametrize("line, message", [
        (b"0 0 0 0 0 0 0 0 0", "expected 10 fields, found 9"),
        (b"0 0 0 0 0 0 0 0 0 0 0", "expected 10 fields, found 11"),
        (b"0 0 0 0 0 0 0 0 0 x", "no.timbre: 'x' is not an integer"),
        (b"0 0 0 0  0 0 0 0 0", "p2.vel: '' is not an integer"),
        (b"0 0 4 0 0 0 0 0 0 0", "p1.timbre: 4 outside [0,3]"),
        (b"0 0 0 0 0 0 1000 0 0 0", "tr.note: 1000 outside [0,108]"),
        (b"0 0 0 0 0 0 0 00017 0 0", "no.note: 17 outside [0,16]"),
    ])
    def test_error_names_first_bad_line(self, line, message):
        # an earlier bad line wins over a later one of any kind
        good, worse = b"0 0 0 0 0 0 0 0 0 0", b"0 0"
        data = b"NESSCORE 1 24 4\n" + b"\n".join([good, line, good, worse]) + b"\n"
        for reader in (read_score_text, read_score_text_by_line):
            with pytest.raises(BadFieldValue) as exc:
                reader(data)
            assert exc.value.line_number == 3 and str(exc.value) == f"line 3: {message}"


def entries(n_games, composers_per_game=1, shared=None):
    out = []
    for g in range(n_games):
        comps = frozenset(f"c{g}_{i}" for i in range(composers_per_game))
        if shared and g in shared:
            comps |= {shared[g]}
        out.append(CorpusEntry(song_id=f"s{g:02d}", game_id=f"g{g}",
                               composer_ids=comps))
    return out


class TestSplit:
    def test_exact_fit(self):
        split = split_corpus(entries(10), (8, 1, 1), seed=0)
        assert [len(split[k]) for k in ("train", "valid", "test")] == [8, 1, 1]

    def test_shared_composer_coassigned(self):
        es = entries(4, shared={0: "shared", 2: "shared"})
        for seed in range(20):
            split = split_corpus(es, seed=seed)
            locations = {name for name, group in split.items()
                         for e in group if e.game_id in ("g0", "g2")}
            assert len(locations) == 1

    def test_deterministic(self):
        es = entries(30)
        assert split_corpus(es, seed=5) == split_corpus(es, seed=5)

    def test_no_composer_spans_subsets(self):
        rng = random.Random(3)
        pool = [f"comp{i}" for i in range(8)]
        es = [CorpusEntry(f"s{i}", f"g{i % 12}",
                          frozenset(rng.sample(pool, rng.randint(1, 2))))
              for i in range(40)]
        for seed in range(10):
            split = split_corpus(es, seed=seed)
            where = {}
            for name, group in split.items():
                for e in group:
                    for c in e.composer_ids:
                        assert where.setdefault(c, name) == name

    def test_all_entries_assigned_once(self):
        es = entries(25)
        split = split_corpus(es, seed=1)
        got = sorted(e.song_id for group in split.values() for e in group)
        assert got == sorted(e.song_id for e in es)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_corpus(entries(3), ratios=(8, 0, 1))

    @pytest.mark.parametrize("ratios", [(8, 1, float("nan")), (8, 1, float("inf")),
                                        (8, 1, "1"), (8, 1, None), (1e308, 1e308, 1), (8, 1)],
                             ids=repr)
    def test_ratios_not_finite_positive_rejected(self, ratios):
        # nan put every song in train, an infinite ratio or sum divided by
        # zero, and "1" or None raised TypeError
        with pytest.raises(ValueError, match="^ratios must be three positive numbers$"):
            split_corpus(entries(3), ratios=ratios)

    def test_ratio_whose_target_rounds_to_zero_rejected(self):
        # one song's test target, 1 * 5e-324 / 2, rounds to 0.0
        with pytest.raises(ValueError, match="^ratios must be three positive numbers$"):
            split_corpus(entries(1), ratios=(1, 1, 5e-324))
        assert split_corpus([], ratios=(1, 1, 5e-324)) == {"train": [], "valid": [], "test": []}

    def test_entry_without_composers_rejected(self):
        es = entries(3) + [CorpusEntry("lone", "g9", frozenset())]
        with pytest.raises(ValueError, match="^entry 'lone' has no composers$"):
            split_corpus(es)


class TestFrameArithmetic:
    def test_sample_positions(self):
        assert frame_sample_index(0, 24) == 0
        assert frame_sample_index(1, 24) == 1837
        assert frame_sample_index(2, 24) == 3675
        assert frame_count(44100, 24) == 24
        assert frame_count(44101, 24) == 25
        assert frame_count(0, 24) == 0

    def test_scalar_gives_int_array_gives_int64(self):
        assert type(frame_sample_index(3, 29.97)) is int
        points = frame_sample_index(np.arange(3), 24)
        assert points.dtype == np.int64 and points.tolist() == [0, 1837, 3675]


class TestRateBound:
    """check_rate: 0 < rate <= 44100, at most MAX_FRAMES frames, and every
    frame within 2^32 - 1 samples."""

    def test_rate_of_a_sample_accepted(self):
        check_rate(44100.0, MAX_FRAMES)
        score = read_score_text(b"NESSCORE 1 44100 1\n0 0 0 0 0 0 0 0 0 0\n")
        assert score.rate_hz == 44100.0

    @pytest.mark.parametrize("rate", [44100.0, 24.0, 0.5])
    def test_frames_past_the_bound_rejected(self, rate):
        # at 24 Hz MAX_FRAMES frames span 3.1e10 samples: the frame bound is checked first
        with pytest.raises(MalformedHeader, match=f"^{MAX_FRAMES + 1} frames are more than"):
            check_rate(rate, MAX_FRAMES + 1, MalformedHeader)

    def test_huge_rate_covering_count_rejected(self):
        # 10^12 frames for one second of input used to pass
        with pytest.raises(ValueError):
            check_rate(1e12, frame_count(44100, 1e12))

    @pytest.mark.parametrize("n_frames", [MAX_TOTAL_SAMPLES + 1, 10 ** 400],
                             ids=["2^32", "10^400"])
    def test_count_above_32_bits_rejected_as_an_integer(self, n_frames):
        # 10^400 is too big for a float: the count is refused before any division
        with pytest.raises(MalformedHeader):
            check_rate(44100.0, n_frames, MalformedHeader)

    RATE_READERS = {
        "write_score_text": lambda rate: write_score_text(ExpressiveScore(rate, [A_FRAME] * 3)),
        "score_to_writes": lambda rate: score_to_writes(ExpressiveScore(rate, [A_FRAME] * 3)),
        "score_to_midi": lambda rate: score_to_midi(ExpressiveScore(rate, [A_FRAME] * 3)),
        "downsample": lambda rate: downsample(constant_timeline(44100), rate),
        "midi_to_score": lambda rate: midi_to_score(
            score_to_midi(ExpressiveScore(24.0, [A_FRAME] * 3)), rate),
    }

    @pytest.mark.parametrize("rate", ["24", None, 24 + 0j])
    @pytest.mark.parametrize("use", RATE_READERS.values(), ids=RATE_READERS.keys())
    def test_rate_that_is_not_a_number_rejected(self, use, rate):
        # each raised a bare TypeError from comparing the rate with 0
        with pytest.raises(ValueError) as exc:
            use(rate)
        assert str(exc.value) == f"rate {rate!r} is not a number in (0, 44100]"

    @pytest.mark.parametrize("rate", [24, np.int64(24), np.float16(24), np.float32(24),
                                      Fraction(24)], ids=repr)
    @pytest.mark.parametrize("use", RATE_READERS.values(), ids=RATE_READERS.keys())
    def test_every_real_rate_gives_the_float_rates_output(self, use, rate):
        # np.float16 overflowed the span check, and a Fraction reached np.rint
        assert use(rate) == use(24.0)

    def test_float32_rate_runs_the_float64_clock(self):
        rate = np.float32(24)
        assert frame_sample_index(10 ** 6, rate) == 1_837_500_000      # was 1_837_500_032
        assert frame_count(734_676_600, rate) == frame_count(734_676_600, 24.0) == 399_824
        assert len(downsample(constant_timeline(734_676_600), rate)) == 399_824

    def test_rate_below_the_float_range_rejected(self):
        rate = Fraction(1, 10 ** 400)       # a positive real that converts to 0.0
        with pytest.raises(ValueError, match="is not a number in"):
            check_rate(rate)

    @pytest.mark.parametrize("rate", [0.0, -24.0, 44101.0, 1e12])
    def test_writers_check_the_rate(self, rate):
        score = ExpressiveScore(rate, [A_FRAME] * 3)
        for writer in (write_score_text, score_to_writes, score_to_midi):
            with pytest.raises(ValueError):
                writer(score)


@pytest.mark.parametrize("writer, bad_frame, message", [
    (write_score_text, A_FRAME._replace(p1_note=5), "frame 2: P1 note 5 outside {0} u [32,108]"),
    (score_to_midi, A_FRAME._replace(p2_note=60, p2_vel=7, p2_timbre=9),
     "frame 2: P2 timbre 9 outside [0,3]"),
    (score_to_writes, A_FRAME._replace(no_vel=0), "frame 2: NO sounding note with velocity 0"),
])
def test_writers_refuse_invalid_frames(writer, bad_frame, message):
    with pytest.raises(ValueError) as exc:
        writer(ExpressiveScore(24.0, [A_FRAME, ExpressiveFrame(), bad_frame, ExpressiveFrame()]))
    assert str(exc.value) == message


def last_frame(rate_hz: float) -> int:
    """The last frame k that the reference clock puts at most 2^32 - 1 samples in."""
    k = int(MAX_TOTAL_SAMPLES * rate_hz / SAMPLE_RATE)
    while ref.frame_sample_index(k + 1, rate_hz) <= MAX_TOTAL_SAMPLES:
        k += 1
    while ref.frame_sample_index(k, rate_hz) > MAX_TOTAL_SAMPLES:
        k -= 1
    return k


class TestFrameClockAgainstReference:
    """The one float64 frame clock against the two-branch scalar one in
    reference_frames, over every frame within 2^32 - 1 samples; check_rate
    allows those up to MAX_FRAMES."""

    def test_every_integer_rate_at_both_ends(self):
        for rate in range(1, SAMPLE_RATE + 1):
            kmax = ((MAX_TOTAL_SAMPLES + 1) * rate - 1) // SAMPLE_RATE
            assert ref.frame_sample_index(kmax, rate) <= MAX_TOTAL_SAMPLES
            assert ref.frame_sample_index(kmax + 1, rate) > MAX_TOTAL_SAMPLES
            ks = [0, 1, kmax - 1, kmax]
            want = [ref.frame_sample_index(k, rate) for k in ks]
            assert frame_sample_index(np.array(ks), float(rate)).tolist() == want
            assert frame_sample_index(kmax, float(rate)) == want[-1]
            allowed = min(kmax, MAX_FRAMES)
            check_rate(float(rate), allowed)
            with pytest.raises(ValueError):
                check_rate(float(rate), allowed + 1)
            for total in (0, 1, MAX_TOTAL_SAMPLES - 1, MAX_TOTAL_SAMPLES):
                assert frame_count(total, float(rate)) == ref.frame_count(total, rate)

    def assert_clock_matches(self, rate, ks):
        kmax = last_frame(rate)
        ks = [0, 1, kmax - 1, kmax, *(k for k in ks if k <= kmax)]
        want = [ref.frame_sample_index(k, rate) for k in ks]
        assert frame_sample_index(np.array(ks), rate).tolist() == want
        assert [frame_sample_index(k, rate) for k in ks] == want
        ticks = np.rint(frame_position(np.array(ks), rate)).astype(np.int64).tolist()
        assert ticks == [ref.frame_tick(k, rate) for k in ks]
        allowed = min(kmax, MAX_FRAMES)
        check_rate(rate, allowed)
        with pytest.raises(ValueError):
            check_rate(rate, allowed + 1)

    @pytest.mark.parametrize("rate", [29.97, 12.5, 0.0000103, 0.5, 59.94, 44099.9])
    def test_fractional_rates(self, rate):
        self.assert_clock_matches(rate, [2, 3, 1000, 123456789])

    @given(st.floats(min_value=1.1e-5, max_value=44100.0), st.lists(st.integers(0, 2 ** 32)))
    @settings(max_examples=300)
    def test_drawn_rates(self, rate, ks):
        self.assert_clock_matches(rate, ks)

    @given(st.floats(min_value=1.1e-5, max_value=44100.0), st.integers(0, MAX_TOTAL_SAMPLES))
    @settings(max_examples=300)
    def test_drawn_frame_counts(self, rate, total):
        assert frame_count(total, rate) == ref.frame_count(total, rate)

    @pytest.mark.parametrize("rate", [24, 24.0, 29.97, 12.5, 29400.0, 17640.0, 0.0000103])
    def test_midi_ticks_round_half_to_even(self, rate):
        # at 29400 and 17640 Hz every other frame sits exactly half-way between two samples
        n = min(2000, last_frame(rate))
        ticks = _frame_tick(np.arange(n + 1), rate).tolist()
        assert ticks == [ref.frame_tick(k, rate) for k in range(n + 1)]
