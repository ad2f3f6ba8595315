"""SMF export/import. An independent chunk walker checks the emitted bytes."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import five_track_file, mutate, random_score
from nesscore.midi import (
    PPQ,
    NotSmf,
    UnmappableEvent,
    _vlq,
    midi_to_score,
    midi_to_velocity,
    score_to_midi,
    velocity_to_midi,
)
from nesscore.score import SILENCE, ExpressiveFrame, ExpressiveScore, validate
from reference_midi import midi_to_score_by_frame


def walk_smf(data):
    """Minimal independent SMF reader: header fields + per-track event dump."""
    assert data[:4] == b"MThd"
    fmt, ntrks, division = struct.unpack(">HHH", data[8:14])
    pos = 14
    tracks = []
    for _ in range(ntrks):
        assert data[pos:pos + 4] == b"MTrk"
        length = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        chunk = data[pos + 8:pos + 8 + length]
        pos += 8 + length
        events = []
        tick = 0
        i = 0
        while i < len(chunk):
            delta = 0
            while True:
                b = chunk[i]
                i += 1
                delta = (delta << 7) | (b & 0x7F)
                if not b & 0x80:
                    break
            tick += delta
            status = chunk[i]
            i += 1
            if status == 0xFF:
                meta = chunk[i]
                length = chunk[i + 1]
                payload = chunk[i + 2:i + 2 + length]
                i += 2 + length
                events.append((tick, "meta", meta, payload))
            else:
                n = 1 if (status & 0xF0) in (0xC0, 0xD0) else 2
                events.append((tick, "ch", status, tuple(chunk[i:i + n])))
                i += n
        tracks.append(events)
    assert pos == len(data)
    return fmt, ntrks, division, tracks


A440 = ExpressiveFrame(p1_note=69, p1_vel=15, p1_timbre=0)


class TestExport:
    def test_header_shape(self):
        fmt, ntrks, division, _ = walk_smf(score_to_midi(ExpressiveScore(24.0, [])))
        assert (fmt, ntrks, division) == (1, 5, PPQ)

    def test_single_note_ticks(self):
        # 24 frames at 24 Hz = 1 s; tick rate equals the audio sample rate
        data = score_to_midi(ExpressiveScore(24.0, [A440] * 24))
        _, _, _, tracks = walk_smf(data)
        p1 = [e for e in tracks[1] if e[1] == "ch"]
        assert p1[0] == (0, "ch", 0xB0, (12, 0))        # timbre controller
        assert p1[1] == (0, "ch", 0x90, (69, 127))      # note on, velocity 127
        assert p1[2] == (44100, "ch", 0x80, (69, 0))    # note off after 1 s

    def test_tempo_meta(self):
        _, _, _, tracks = walk_smf(score_to_midi(ExpressiveScore(24.0, [A440])))
        metas = [e for e in tracks[0] if e[1] == "meta" and e[2] == 0x51]
        assert metas == [(0, "meta", 0x51, b"\x07\xa1\x20")]  # 500000 us/quarter

    def test_empty_score_has_no_notes(self):
        _, ntrks, _, tracks = walk_smf(score_to_midi(ExpressiveScore(24.0, [])))
        assert ntrks == 5
        assert all(not [e for e in t if e[1] == "ch"] for t in tracks)

    def test_velocity_ramp_uses_expression_controller(self):
        frames = [A440._replace(p1_vel=v) for v in (15, 15, 12, 12, 8)]
        _, _, _, tracks = walk_smf(score_to_midi(ExpressiveScore(24.0, frames)))
        channel = [e for e in tracks[1] if e[1] == "ch"]
        ons = [e for e in channel if e[2] & 0xF0 == 0x90]
        offs = [e for e in channel if e[2] & 0xF0 == 0x80]
        ccs = [e for e in channel if e[2] & 0xF0 == 0xB0 and e[3][0] == 11]
        assert len(ons) == 1 and len(offs) == 1
        assert [c[3][1] for c in ccs] == [velocity_to_midi(12), velocity_to_midi(8)]

    def test_noise_track_uses_low_pitches(self):
        frames = [ExpressiveFrame(no_note=16, no_vel=9, no_timbre=1)]
        _, _, _, tracks = walk_smf(score_to_midi(ExpressiveScore(24.0, frames)))
        ons = [e for e in tracks[4] if e[1] == "ch" and e[2] & 0xF0 == 0x90]
        assert ons[0][3][0] == 16

    def test_all_tracks_end_together(self):
        data = score_to_midi(ExpressiveScore(24.0, [A440] * 10))
        _, _, _, tracks = walk_smf(data)
        ends = {t[-1][0] for t in tracks}
        assert ends == {round(10 * 44100 / 24)}

    def test_note_ons_and_offs_match(self):
        rng = random.Random(17)
        for _ in range(10):
            data = score_to_midi(random_score(rng, rng.randint(0, 30)))
            _, _, _, tracks = walk_smf(data)
            for track in tracks:
                ons = sum(1 for e in track if e[1] == "ch" and e[2] & 0xF0 == 0x90)
                offs = sum(1 for e in track if e[1] == "ch" and e[2] & 0xF0 == 0x80)
                assert ons == offs


class TestVelocityMap:
    def test_bijective_on_sounding_levels(self):
        for v in range(1, 16):
            assert midi_to_velocity(velocity_to_midi(v)) == v

    def test_full_scale(self):
        assert velocity_to_midi(15) == 127
        assert velocity_to_midi(1) == max(1, round(127 / 15))


class TestRoundTrip:
    def test_simple(self):
        frames = [A440] * 6 + [SILENCE] * 3 + [A440._replace(p1_vel=4)] * 5
        score = ExpressiveScore(24.0, frames)
        assert midi_to_score(score_to_midi(score), 24.0) == score

    def test_empty(self):
        score = ExpressiveScore(24.0, [])
        assert midi_to_score(score_to_midi(score), 24.0) == score

    def test_timbre_changes_mid_note(self):
        frames = [A440._replace(p1_timbre=t) for t in (0, 0, 1, 1, 3)]
        score = ExpressiveScore(24.0, frames)
        assert midi_to_score(score_to_midi(score), 24.0) == score

    def test_randomized(self):
        rng = random.Random(99)
        for trial in range(40):
            score = random_score(rng, rng.randint(0, 40))
            assert midi_to_score(score_to_midi(score), 24.0) == score, f"trial {trial}"

    def test_other_rates(self):
        rng = random.Random(5)
        for rate in (12.0, 24.0, 48.0):
            score = random_score(rng, 20, rate_hz=rate)
            assert midi_to_score(score_to_midi(score), rate) == score


class TestImportErrors:
    def test_not_smf_magic(self):
        with pytest.raises(NotSmf):
            midi_to_score(b"RIFF" + b"\x00" * 40, 24.0)

    def test_truncated(self):
        data = score_to_midi(ExpressiveScore(24.0, [A440] * 4))
        with pytest.raises(NotSmf):
            midi_to_score(data[: len(data) // 2], 24.0)

    def test_pitch_bend_rejected(self):
        with pytest.raises(UnmappableEvent):
            midi_to_score(five_track_file(b"\x00\xe0\x00\x40"), 24.0)

    def test_program_change_rejected(self):
        with pytest.raises(UnmappableEvent):
            midi_to_score(five_track_file(b"\x00\xc0\x05"), 24.0)

    def test_foreign_controller_rejected(self):
        with pytest.raises(UnmappableEvent):
            midi_to_score(five_track_file(b"\x00\xb0\x07\x40"), 24.0)

    def test_wrong_division(self):
        data = bytearray(score_to_midi(ExpressiveScore(24.0, [A440])))
        struct.pack_into(">H", data, 12, 480)
        with pytest.raises(UnmappableEvent):
            midi_to_score(bytes(data), 24.0)

    def test_wrong_tempo(self):
        body = five_track_file(b"")
        patched = body.replace(b"\x07\xa1\x20", b"\x06\x1a\x80")  # 400000 us
        with pytest.raises(UnmappableEvent):
            midi_to_score(patched, 24.0)

    def test_wrong_track_count(self):
        data = score_to_midi(ExpressiveScore(24.0, [A440]))
        _, _, _, _ = walk_smf(data)
        # drop the last track chunk and patch the count
        last = data.rfind(b"MTrk")
        patched = bytearray(data[:last])
        struct.pack_into(">H", patched, 10, 4)
        with pytest.raises(UnmappableEvent):
            midi_to_score(bytes(patched), 24.0)

    @pytest.mark.parametrize("end_tick", [2 ** 32, 2 ** 1400], ids=["2^32", "2^1400"])
    @pytest.mark.parametrize("rate", [24.0, 29.97])
    def test_end_past_32_bits_rejected(self, end_tick, rate):
        # one tick is one sample
        if end_tick == 2 ** 32:
            # 16 of the largest 4-byte deltas, each before an empty text meta
            big = 0x0FFFFFFF
            body = (_vlq(big) + b"\xff\x01\x00") * 16 + _vlq(end_tick - 16 * big)
            with pytest.raises(UnmappableEvent):
                midi_to_score(five_track_file(body + b"\x90\x45\x7f"), rate)
            return
        # a 201-byte delta breaks the 4-byte bound where it starts, in the second track
        data = five_track_file(_vlq(end_tick) + b"\x90\x45\x7f")
        delta_at = data.index(b"MTrk", data.index(b"MTrk") + 1) + 8
        with pytest.raises(NotSmf, match=f"at {delta_at:#x} is longer than 4 bytes"):
            midi_to_score(data, rate)

    def test_long_meta_length_rejected(self):
        # a text meta whose length, though 0, takes 5 bytes
        data = five_track_file(b"\x00\xff\x01\x80\x80\x80\x80\x00")
        length_at = data.index(b"MTrk", data.index(b"MTrk") + 1) + 8 + 3
        with pytest.raises(NotSmf, match=f"at {length_at:#x} is longer than 4 bytes"):
            midi_to_score(data, 24.0)

    def test_data_byte_with_high_bit_rejected(self):
        # a note-on whose data bytes 0xC8 0xFF would read as pitch 200, velocity 15
        data = five_track_file(b"\x00\x90\xc8\xff\x8e\x2e\x80\xc8\x00")
        at = data.index(b"MTrk", data.index(b"MTrk") + 1) + 8 + 2
        with pytest.raises(NotSmf, match=f"data byte 0xc8 at {at:#x} is not below 0x80"):
            midi_to_score(data, 24.0)
        # the second data byte too, and under running status
        data = five_track_file(b"\x00\x90\x45\x7f\x00\x45\x80")
        at = data.index(b"MTrk", data.index(b"MTrk") + 1) + 8 + 6
        with pytest.raises(NotSmf, match=f"data byte 0x80 at {at:#x} is not below 0x80"):
            midi_to_score(data, 24.0)

    def test_timbre_outside_the_voice_rejected(self):
        # duty 9 on pulse 1, set before its note
        body = b"\x00\xb0\x0c\x09\x00\x90\x45\x7f\x8e\x2e\x80\x45\x00"
        message = r"^frame 0, track 1: P1 timbre 9 outside \[0,3\]$"
        with pytest.raises(UnmappableEvent, match=message):
            midi_to_score(five_track_file(body), 24.0)

    def test_running_status_accepted(self):
        # two notes sharing one status byte; deltas of 8000 ticks (VLQ be 40)
        body = (b"\x00\x90\x45\x7f"      # on 69
                b"\xbe\x40\x45\x00"      # running status: on vel 0 = off
                b"\x00\x46\x7f"          # on 70
                b"\xbe\x40\x46\x00")     # off
        score = midi_to_score(five_track_file(body), 24.0)
        assert score.frames[0].p1_note == 69
        assert 70 in {f.p1_note for f in score.frames}


# (delta, status, data1, data2) events of one voice; a frame lasts 1837.5 ticks at 24 Hz.
HAND_BUILT = {
    "four events on tick 0": [
        (0, 0x90, 69, 127), (0, 0xB0, 11, 64), (0, 0xB0, 12, 2), (0, 0x90, 72, 48),
        (3676, 0x80, 72, 0)],
    "on and off on one tick, then a later note": [
        (0, 0x90, 69, 127), (0, 0x80, 69, 0), (2000, 0x90, 70, 32), (2000, 0x90, 70, 0)],
    "events after the last frame": [
        (0, 0x90, 69, 127), (3000, 0xB0, 11, 16), (0, 0xB0, 12, 3), (0, 0x90, 48, 64)],
    "note on a frame tick, then expression and off on one tick": [
        (1838, 0x90, 80, 80), (1838, 0xB0, 11, 32), (0, 0x80, 80, 0)],
    "controllers before the first note": [
        (0, 0xB0, 12, 1), (0, 0xB0, 11, 5), (1838, 0x90, 65, 127), (1838, 0x80, 65, 0)],
}


def noise_range(events):
    """The same events with pitches folded into noise notes 1-16 and timbres into 0-1."""
    return [(delta, status, 1 + d1 % 16 if status != 0xB0 else d1,
             min(d2, 1) if (status, d1) == (0xB0, 12) else d2)
            for delta, status, d1, d2 in events]


def hand_built_file(events, voice: int) -> bytes:
    """Tempo track and four voice tracks, the events on the given voice's."""
    def track(body):
        return b"MTrk" + struct.pack(">I", len(body)) + body
    eot = b"\x00\xff\x2f\x00"
    body = b"".join(_vlq(delta) + bytes((status | voice, d1, d2))
                    for delta, status, d1, d2 in events)
    voices = [track(eot)] * 4
    voices[voice] = track(body + eot)
    return (b"MThd" + struct.pack(">IHHH", 6, 1, 5, PPQ)
            + track(b"\x00\xff\x51\x03\x07\xa1\x20" + eot) + b"".join(voices))


class TestImportAgainstReference:
    """The vectorised import against the per-frame one in reference_midi."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60),
           st.sampled_from([24.0, 12.5, 29.97, 60.0]), st.sampled_from([24.0, 7.5, 29.97, 100.0]))
    @settings(max_examples=150)
    def test_random_scores(self, seed, n_frames, rate, import_rate):
        # importing at another rate puts several events, or none, between frames
        data = score_to_midi(random_score(random.Random(seed), n_frames, rate_hz=rate))
        assert midi_to_score(data, import_rate) == midi_to_score_by_frame(data, import_rate)

    @pytest.mark.parametrize("events", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    @pytest.mark.parametrize("voice", range(4))
    def test_hand_built(self, events, voice):
        # the noise voice plays the same timing on its own notes and modes
        data = hand_built_file(noise_range(events) if voice == 3 else events, voice)
        sounded = False
        for rate in (24.0, 29.97, 1000.0):
            score = midi_to_score(data, rate)
            assert score == midi_to_score_by_frame(data, rate)
            sounded |= score.to_array()[:, (0, 3, 6, 7)[voice]].any()
        assert sounded

    def test_pitch_outside_the_noise_voice_rejected(self):
        data = hand_built_file(HAND_BUILT["events after the last frame"], 3)
        for rate in (24.0, 29.97, 1000.0):
            with pytest.raises(UnmappableEvent,
                               match=r"^frame 0, track 4: NO note 69 outside \[0,16\]$"):
                midi_to_score(data, rate)


MIDI_EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 500),
    st.one_of(st.sampled_from(b"\x00\x01\x0b\x0c\x2f\x51\x7f\x80\x81\x90\xb0\xc0\xf0\xff"),
              st.integers(0, 255)))


class TestByteMutations:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 12), st.lists(MIDI_EDIT, min_size=1, max_size=4))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_only_typed_errors(self, seed, n_frames, edits):
        data = mutate(score_to_midi(random_score(random.Random(seed), n_frames)), edits)
        try:
            assert validate(midi_to_score(data, 24.0)) == []
        except (NotSmf, UnmappableEvent):
            pass
        except ValueError as exc:
            # check_rate's own error: the frames would span too many samples
            if type(exc) is not ValueError or "span more than" not in str(exc):
                raise
