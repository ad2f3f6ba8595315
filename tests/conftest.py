import random
import struct

import numpy as np
import pytest

from nesscore.apu import Timeline
from nesscore.midi import PPQ
from nesscore.score import SILENCE, ExpressiveFrame, ExpressiveScore


def timeline_of(total_samples: int, changes) -> Timeline:
    """A Timeline holding the (start, ExpressiveFrame) change points given."""
    starts = np.array([start for start, _frame in changes], np.int64)
    frames = np.array([frame for _start, frame in changes], np.int16).reshape(-1, 10)
    return Timeline(total_samples, starts, frames)


def random_synthesizable_frame(rng: random.Random) -> ExpressiveFrame:
    """A valid frame whose notes are all producible by the hardware timers.

    Pulse MIDI 32 is part of the modeling alphabet but has no 11-bit timer,
    so synthesizable pulse notes start at 33.
    """
    def pulse():
        if rng.random() < 0.35:
            return (0, 0, 0)
        return (rng.randint(33, 108), rng.randint(1, 15), rng.randint(0, 3))

    p1, p2 = pulse(), pulse()
    tr = rng.randint(21, 108) if rng.random() >= 0.35 else 0
    if rng.random() < 0.35:
        no = (0, 0, 0)
    else:
        no = (rng.randint(1, 16), rng.randint(1, 15), rng.randint(0, 1))
    return ExpressiveFrame(*p1, *p2, tr, *no)


def random_score(rng: random.Random, n_frames: int, rate_hz: float = 24.0,
                 hold: float = 0.6) -> ExpressiveScore:
    """Random valid score with note-length structure (frames tend to hold)."""
    frames = []
    current = SILENCE
    for _ in range(n_frames):
        if not frames or rng.random() >= hold:
            current = random_synthesizable_frame(rng)
        frames.append(current)
    return ExpressiveScore(rate_hz=rate_hz, frames=frames)


def five_track_file(track1_body: bytes) -> bytes:
    """Hand-rolled MIDI file: tempo track + a custom voice track + 3 empty voices."""
    def track(body):
        return b"MTrk" + struct.pack(">I", len(body)) + body
    eot = b"\x00\xff\x2f\x00"
    tempo = b"\x00\xff\x51\x03\x07\xa1\x20" + eot
    chunks = [track(tempo), track(track1_body + eot)] + [track(eot)] * 3
    return b"MThd" + struct.pack(">IHHH", 6, 1, 5, PPQ) + b"".join(chunks)


def mutate(data: bytes, edits) -> bytes:
    """Apply (kind, where, byte) edits; kind is "insert", "replace" or "delete"."""
    out = bytearray(data)
    for kind, where, byte in edits:
        i = where % (len(out) + 1)
        if kind == "insert":
            out[i:i] = bytes((byte,))
        elif i < len(out):
            if kind == "replace":
                out[i] = byte
            else:
                del out[i]
    return bytes(out)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
