"""Score containers for four-voice chip music.

Three representations of the same material, ordered by information content:

* expressive score -- per-frame (note, velocity, timbre) for each voice
* separated score  -- note-only 4xT matrix, one monophonic row per voice
* blended score    -- 88xT binary piano roll, union of the melodic voices

Plus the frame schema (``SCHEMA``, checked by ``validate`` and, in every
reader and writer, by ``check_frames``), the per-voice change rule the score
writers schedule by (``voice_changes``, ``schedule``), the 24 Hz downsampling
step, the NESSCORE text format and the composer-disjoint corpus split.
"""

import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

SAMPLE_RATE = 44100
DEFAULT_RATE_HZ = 24.0

PULSE_NOTE_MIN, PULSE_NOTE_MAX = 32, 108
TRIANGLE_NOTE_MIN, TRIANGLE_NOTE_MAX = 21, 108
NOISE_NOTE_MAX = 16
VELOCITY_MAX = 15

# The frame schema.  A frame holds each voice's fields in turn, in the order
# of this table: its note, then its velocity and timbre where it has them.
# A voice is off, 0 in every field, or sounding, with each field in its
# range here: a note in the voice's range, velocity 1-15 and a timbre within
# its bound.  Noise "notes" 1..16 index period, higher = noisier/brighter.
_VELOCITIES = range(1, VELOCITY_MAX + 1)
_PULSE = (range(PULSE_NOTE_MIN, PULSE_NOTE_MAX + 1), _VELOCITIES, range(4))  # timbre: duty
SCHEMA = {
    "P1": _PULSE,
    "P2": _PULSE,
    "TR": (range(TRIANGLE_NOTE_MIN, TRIANGLE_NOTE_MAX + 1),),
    "NO": (range(1, NOISE_NOTE_MAX + 1), _VELOCITIES, range(2)),     # timbre: mode
}
FIELD_NAMES = ("note", "vel", "timbre")
VOICES = tuple(SCHEMA)
# (voice, field name, sounding values) of each frame column, in column order
_FIELDS = [(voice, name, values) for voice, fields in SCHEMA.items()
           for name, values in zip(FIELD_NAMES, fields)]
VOICE_COLUMNS = {voice: tuple(c for c, field in enumerate(_FIELDS) if field[0] == voice)
                 for voice in VOICES}
NOTE_COLUMNS = tuple(columns[0] for columns in VOICE_COLUMNS.values())

# Blended grid covers the 88 piano keys, bottom row = MIDI 21.
BLENDED_NOTE_MIN = 21
BLENDED_ROWS = 88


class MalformedHeader(ValueError):
    """NESSCORE text header is missing or inconsistent."""


class BadFieldValue(ValueError):
    """A NESSCORE body line has the wrong shape or an out-of-range value."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ExpressiveFrame(NamedTuple):
    """One timestep of the expressive representation (all fields integers),
    each voice's fields in ``SCHEMA`` order."""

    p1_note: int = 0
    p1_vel: int = 0
    p1_timbre: int = 0
    p2_note: int = 0
    p2_vel: int = 0
    p2_timbre: int = 0
    tr_note: int = 0
    no_note: int = 0
    no_vel: int = 0
    no_timbre: int = 0


SILENCE = ExpressiveFrame()


class ExpressiveScore:
    """Frames at a fixed rate, stored as one read-only (T, 10) int16 array.

    ``frames`` (ExpressiveFrames or a (T, 10) integer array) is copied in, else
    ValueError.  ``to_array()`` is the store; ``.frames`` rebuilds tuples per access.
    """

    def __init__(self, rate_hz: float = DEFAULT_RATE_HZ, frames=()):
        given = np.asarray(frames if len(frames) else np.empty((0, 10), np.int16))
        values = given.astype(np.int16, order="C")
        if values.shape[1:] != (10,) or (given.dtype != np.int16 and (values != given).any()):
            raise ValueError(f"frames are not T x 10 int16 values: {given.shape} {given.dtype}")
        values.flags.writeable = False
        self.rate_hz = rate_hz
        self._values = values

    @property
    def frames(self) -> list[ExpressiveFrame]:
        return list(map(tuple.__new__, itertools.repeat(ExpressiveFrame), self._values.tolist()))

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other):
        if not isinstance(other, ExpressiveScore):
            return NotImplemented
        return self.rate_hz == other.rate_hz and np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        return f"ExpressiveScore(rate_hz={self.rate_hz!r}, frames={self.frames!r})"

    def to_array(self) -> np.ndarray:
        """Frames as a read-only (T, 10) int16 array in frame-field order."""
        return self._values


@dataclass(eq=False)
class SeparatedScore:
    """Note-only matrix, shape (4, T); voice order P1, P2, TR, NO."""

    rate_hz: float
    notes: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, SeparatedScore):
            return NotImplemented
        return self.rate_hz == other.rate_hz and np.array_equal(self.notes, other.notes)


@dataclass(eq=False)
class BlendedScore:
    """Binary piano-roll grid, shape (88, T); row 0 = MIDI 21."""

    rate_hz: float
    grid: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, BlendedScore):
            return NotImplemented
        return self.rate_hz == other.rate_hz and np.array_equal(self.grid, other.grid)


class Diagnostic(NamedTuple):
    frame_index: int
    voice: str
    message: str


# ---------------------------------------------------------------------------
# the frame clock shared by downsampling, synthesis and MIDI
#
# Frame k sits at k*44100/rate samples, one float64 quotient.  check_rate keeps
# k*44100 below 2^53, where that quotient is the correctly rounded true one.

def frame_position(k, rate_hz: float):
    """Where frame k (an int or an integer array) sits, in samples, as float64."""
    return k * SAMPLE_RATE / rate_hz


def frame_sample_index(k, rate_hz: float):
    """Audio sample at which frame k is sampled: floor(k*44100/rate).

    An int k gives an int; an integer array gives an int64 array.
    """
    index = np.floor(frame_position(k, rate_hz))
    return index.astype(np.int64) if isinstance(index, np.ndarray) else int(index)


def frame_count(total_samples: int, rate_hz: float) -> int:
    """Number of frames covering total_samples: ceil(total*rate/44100)."""
    return math.ceil(total_samples * rate_hz / SAMPLE_RATE)


# ---------------------------------------------------------------------------
# representation conversions

def downsample(timeline, rate_hz: float = DEFAULT_RATE_HZ) -> ExpressiveScore:
    """Point-sample a 44.1 kHz frame timeline down to rate_hz.

    Frame k takes the timeline state at sample floor(k*44100/rate_hz); no
    aggregation or filtering.  Trailing partial frames are kept (ceiling).
    Raises ValueError for a rate ``check_rate`` rejects, so every score made
    here can be written and read back.
    """
    check_rate(rate_hz)                    # frame_count needs a usable rate
    n = frame_count(timeline.total_samples, rate_hz)
    check_rate(rate_hz, n)
    points = frame_sample_index(np.arange(n), rate_hz)
    # Point k falls in the run of change i - 1, i = searchsorted(...)[k]; i = 0 is
    # the SILENCE before the first change.
    table = np.concatenate((np.zeros((1, 10), np.int16), timeline.frames))
    return ExpressiveScore(float(rate_hz),
                           table[np.searchsorted(timeline.starts, points, "right")])


def to_separated(score: ExpressiveScore) -> SeparatedScore:
    """Project an expressive score to notes only (dynamics/timbre dropped)."""
    arr = score.to_array()
    return SeparatedScore(rate_hz=score.rate_hz, notes=arr[:, NOTE_COLUMNS].T.copy())


def to_blended(score: SeparatedScore) -> BlendedScore:
    """Union the melodic voices (P1, P2, TR) onto the 88-key binary grid.

    The noise voice is discarded; voices playing the same note collapse to a
    single cell, so a column never has more than three ones.
    """
    n_t = score.notes.shape[1]
    grid = np.zeros((BLENDED_ROWS, n_t), dtype=np.uint8)
    for v in range(3):
        row = score.notes[v]
        on = np.nonzero(row > 0)[0]
        grid[row[on] - BLENDED_NOTE_MIN, on] = 1
    return BlendedScore(rate_hz=score.rate_hz, grid=grid)


# ---------------------------------------------------------------------------
# validation

# Per frame column, one row each: the least value it holds while its voice
# sounds, how far above that it may go, and its voice's note column.
_LO = np.array([[values.start] for _voice, _name, values in _FIELDS], np.int16)
_SPAN = np.array([[len(values) - 1] for _voice, _name, values in _FIELDS], np.uint16)
_NOTE_OF = np.array([VOICE_COLUMNS[voice][0] for voice, _name, _values in _FIELDS])


def validate(score: ExpressiveScore) -> list[Diagnostic]:
    """One diagnostic per schema violation, by frame, then voice: a field
    outside {0} u its sounding range, an off voice with a field not 0, a
    sounding voice at velocity 0.  An empty list if the score is valid."""
    values = score.to_array()
    rows = values.T.copy()      # contiguous rows make each mask one fast pass
    zero = rows == 0
    off = zero[_NOTE_OF]
    # below _LO the difference wraps to above every span
    in_range = (rows - _LO).view(np.uint16) <= _SPAN
    # The rule: a field is 0 while its voice is off, in its range while it sounds.
    valid = (off & zero) | (~off & in_range)
    if valid.all():
        return []
    # Each field breaking it is out of range, set while its voice is off, or
    # a velocity of 0 while its voice sounds.
    checks = []     # (frames failing it, voice, column shown as {value}, message)
    for voice, columns in VOICE_COLUMNS.items():
        for c, label in zip(columns, ("note", "velocity", "timbre")):
            lo, hi = _FIELDS[c][2][0], _FIELDS[c][2][-1]
            allowed = f"[0,{hi}]" if lo <= 1 else f"{{0}} u [{lo},{hi}]"
            checks.append((~(zero[c] | in_range[c]), voice, c,
                           f"{label} {{value}} outside {allowed}"))
        if len(columns) > 1:
            note, vel, timbre = columns
            checks.append((off[vel] & ~(valid[vel] & valid[timbre]), voice, note,
                           "off state must be (0, 0, 0)"))
            checks.append((zero[vel] & ~valid[vel], voice, vel, "sounding note with velocity 0"))
    frames, failed = np.nonzero(np.array([mask for mask, *_ in checks]).T)
    out = []
    for i, k in zip(frames.tolist(), failed.tolist()):     # once per diagnostic
        _mask, voice, column, text = checks[k]
        out.append(Diagnostic(i, voice, text.replace("{value}", str(values[i, column]))))
    return out


def check_frames(score: ExpressiveScore, error=lambda d: ValueError(
        f"frame {d.frame_index}: {d.voice} {d.message}")) -> None:
    """Raise ``error(d)``, d the first diagnostic ``validate`` gives, if any."""
    diagnostics = validate(score)
    if diagnostics:
        raise error(diagnostics[0])


def voice_state_space(voice: str) -> set[tuple]:
    """The distinct per-frame states a voice can take: off, or each field in
    its sounding range.  Sizes: pulse 1 + 77*15*4 = 4621, triangle 1 + 88 =
    89, noise 1 + 16*15*2 = 481.
    """
    if voice not in SCHEMA:
        raise ValueError(f"unknown voice {voice!r}")
    return {(0,) * len(SCHEMA[voice]), *itertools.product(*SCHEMA[voice])}


# ---------------------------------------------------------------------------
# per-voice changes, the one rule the score writers schedule their events by

class VoiceChanges(NamedTuple):
    """One voice over frames 0..T of a T-frame score, frame T the silence after it:
    its fields (rows in ``SCHEMA`` order) in each frame and in the frame before."""

    now: np.ndarray
    before: np.ndarray
    onset: np.ndarray       # the note changed to a sounding note
    release: np.ndarray     # the note changed from a sounding note
    changed: np.ndarray     # per dynamics field: it changed while the same note held


def voice_changes(values: np.ndarray, voice: str) -> VoiceChanges:
    """The changes of ``voice`` over frames 0..T of a (T, 10) frame array."""
    now = np.zeros((len(SCHEMA[voice]), len(values) + 1), np.int16)
    now[:, :-1] = values[:, VOICE_COLUMNS[voice]].T
    before = np.roll(now, 1, axis=1)    # silent frame T rolls round to precede frame 0
    new_note = now[0] != before[0]
    return VoiceChanges(now, before, new_note & (now[0] > 0), new_note & (before[0] > 0),
                        (now[1:] != before[1:]) & ~new_note)


def schedule(events: list[tuple], n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """The events of frames 0..n_frames - 1, frame by frame, in list order within one.

    An event is (mask, *fields), each field a number or an array over the mask's
    frames.  Returns each event's frame and, one row per field, its values.
    """
    masks = np.array([mask for mask, *_fields in events])
    frame, which = np.nonzero(masks[:, :n_frames].T)
    fields = np.empty((len(events[0]) - 1, len(frame)), np.int64)
    for e, (_mask, *values) in enumerate(events):
        at = which == e     # this event's frames, in increasing order
        for f, value in enumerate(values):
            fields[f, at] = value[frame[at]] if isinstance(value, np.ndarray) else value
    return frame, fields


# ---------------------------------------------------------------------------
# NESSCORE text format
#
# line 1: "NESSCORE 1 <rate_hz> <T>"
# then T lines of 10 fields, each one or more ASCII digits, separated by
# single spaces:
# p1.note p1.vel p1.timbre p2.note p2.vel p2.timbre tr.note no.note no.vel no.timbre
# Lines end in "\n" or "\r\n"; the end of the last line may be omitted.

# Each field's name and upper bound; every lower bound is 0.
_FIELD_BOUNDS = tuple((f"{voice.lower()}.{name}", values[-1]) for voice, name, values in _FIELDS)
_FIELD_MAX = np.array([hi for _name, hi in _FIELD_BOUNDS], np.int16)
_FRAME_LINE = " ".join(["%d"] * len(_FIELD_BOUNDS))

# The most samples a stream may span: write_vgm encodes offsets in 32 bits.
MAX_TOTAL_SAMPLES = 0xFFFFFFFF
# The most frames a score may hold: 320 MiB as a (T, 10) int16 array, 8 days
# at 24 Hz, 380 s at 44.1 kHz, and far below the 1.4e9 frames from which two
# frames just below 44.1 kHz can round to one MIDI tick.
MAX_FRAMES = 1 << 24


def check_rate(rate_hz: float, n_frames: int = 0, error: type = ValueError) -> None:
    """Raise ``error`` unless 0 < rate_hz <= 44100, n_frames <= ``MAX_FRAMES``
    and n_frames frames at rate_hz span at most 2^32 - 1 samples (the default
    0 frames checks the rate alone).  A frame shorter than a sample would only
    repeat samples.  Readers check before they allocate frames.
    """
    if not 0 < rate_hz <= SAMPLE_RATE:
        raise error(f"rate {rate_hz} Hz is not a number in (0, {SAMPLE_RATE}]")
    # The count is bounded as an integer first, so no count too big for a float
    # reaches the division.
    if n_frames > MAX_FRAMES:
        raise error(f"{n_frames} frames are more than the {MAX_FRAMES} a score may hold")
    # floor(x) > 2^32 - 1 exactly when x >= 2^32, x = inf too
    if frame_position(n_frames, rate_hz) >= MAX_TOTAL_SAMPLES + 1:
        raise error(f"{n_frames} frames at {rate_hz} Hz span more than "
                    f"{MAX_TOTAL_SAMPLES} samples")


def _format_rate(rate_hz: float) -> str:
    return str(int(rate_hz)) if float(rate_hz).is_integer() else repr(float(rate_hz))


def write_score_text(score: ExpressiveScore) -> bytes:
    """NESSCORE text of a score; ValueError for a rate or length ``check_rate``
    rejects, or naming the first frame ``validate`` rejects."""
    check_rate(score.rate_hz, len(score))
    check_frames(score)
    lines = [f"NESSCORE 1 {_format_rate(score.rate_hz)} {len(score)}"]
    lines.extend(_FRAME_LINE % tuple(row) for row in score.to_array().tolist())
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_score_text(data: bytes) -> ExpressiveScore:
    """Parse NESSCORE text, raising MalformedHeader or BadFieldValue.

    The body is parsed and bounds-checked in one vectorised pass over its
    bytes (see ``_read_body``); a body that passes is then checked against
    the frame schema, and the first frame ``validate`` rejects is a
    BadFieldValue at its line.
    """
    if b"\r" in data:      # with no CR, replace's scan costs as much as check_frames
        data = data.replace(b"\r\n", b"\n")
    if not data:
        raise MalformedHeader("empty file")
    head_line, _, body = data.partition(b"\n")
    try:
        head_text = head_line.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedHeader(f"header line {head_line!r} is not UTF-8") from None
    head = head_text.split(" ")
    if len(head) != 4 or head[0] != "NESSCORE":
        raise MalformedHeader(f"bad header line {head_text!r}")
    if head[1] != "1":
        raise MalformedHeader(f"unsupported version {head[1]!r}")
    try:
        rate_hz = float(head[2])
        n_frames = int(head[3])
    except ValueError as exc:
        raise MalformedHeader(f"bad header field: {exc}") from None
    if n_frames < 0:
        raise MalformedHeader(f"frame count {n_frames} out of range")
    check_rate(rate_hz, n_frames, MalformedHeader)
    if body and not body.endswith(b"\n"):
        body += b"\n"
    newline = np.frombuffer(body, np.uint8) == 10
    n_lines = int(np.count_nonzero(newline))
    if n_lines != n_frames:
        raise MalformedHeader(f"expected {n_frames} frame lines, found {n_lines}")
    score = ExpressiveScore(rate_hz, _read_body(body, newline, n_lines))
    check_frames(score, lambda d: BadFieldValue(d.frame_index + 2, f"{d.voice} {d.message}"))
    return score


def _read_body(body: bytes, newline: np.ndarray, n_lines: int) -> np.ndarray:
    """Field values, shape (n_lines, 10), of frame lines that each end in "\\n";
    ``newline`` marks the body's newline bytes.

    Whole-array passes find the separators, build each value from its last
    three digits and flag every line with a wrong field count, an empty
    field, a byte that is neither digit nor separator, or a value above its
    bound.  The first flagged line is then re-read on its own by
    ``_line_error`` so the error names the line and field.
    """
    b = np.frombuffer(body, dtype=np.uint8)
    sep = (b == 32) | newline
    ends = np.flatnonzero(sep)          # one past the last byte of each field
    newlines = ends[9::10]
    if len(ends) != 10 * n_lines or not newline[newlines].all():
        # A line without 10 fields: report a bad field on an earlier line first.
        newlines = np.flatnonzero(newline)
        fields = np.diff(np.searchsorted(ends, newlines, side="right"), prepend=0)
        k = int(np.argmax(fields != 10))
        end = newlines[k - 1] + 1 if k else 0
        _read_body(body[:end], newline[:end], k)
        raise _line_error(body, k)

    digit = b - np.uint8(48)            # bytes below "0" wrap above 9
    width = np.diff(ends, prepend=-1) - 1
    values = digit.take(ends - 1).astype(np.int16)
    tens = digit.take(ends - 2)
    tens[width < 2] = 0
    values += 10 * tens
    hundreds = digit.take(ends - 3).astype(np.int16)
    hundreds[width < 3] = 0
    values += 100 * hundreds
    bad = (width == 0) | (values.reshape(-1, 10) > _FIELD_MAX).ravel()
    if (width > 3).any():
        # Longer fields are in range only if their leading digits are zeros.
        nonzero = np.concatenate(([0], np.cumsum(digit != 0)))
        bad |= (width > 3) & (nonzero[ends - 3] > nonzero[ends - width])
    flagged = bad.reshape(-1, 10).any(axis=1)
    stray = np.flatnonzero((digit > 9) & ~sep)
    if len(stray):
        flagged[np.searchsorted(newlines, stray[0])] = True
    if flagged.any():
        raise _line_error(body, int(np.argmax(flagged)))
    return values.reshape(-1, 10)


def _line_error(body: bytes, index: int) -> BadFieldValue:
    """The error for frame line ``index`` (0-based), checked field by field."""
    line_number = index + 2
    parts = body.split(b"\n")[index].decode("utf-8", "backslashreplace").split(" ")
    if len(parts) != 10:
        return BadFieldValue(line_number, f"expected 10 fields, found {len(parts)}")
    for (name, hi), part in zip(_FIELD_BOUNDS, parts):
        if not (part.isascii() and part.isdigit()):
            return BadFieldValue(line_number, f"{name}: {part!r} is not an integer")
        v = int(part)
        if v > hi:
            return BadFieldValue(line_number, f"{name}: {v} outside [0,{hi}]")
    return BadFieldValue(line_number, "line does not match the frame grammar")


# ---------------------------------------------------------------------------
# corpus split

@dataclass(frozen=True)
class CorpusEntry:
    """One song in a corpus manifest."""

    song_id: str
    game_id: str
    composer_ids: frozenset[str]
    score_ref: str | None = None


SPLIT_NAMES = ("train", "valid", "test")


def split_corpus(entries: Sequence[CorpusEntry], ratios: tuple = (8, 1, 1),
                 seed: int = 0) -> dict[str, list[CorpusEntry]]:
    """Assign entries to train/valid/test so no composer spans subsets.

    Connected components of the game-composer graph are the split units;
    they are shuffled by seed and each is assigned to the subset with the
    lowest fill fraction (song count / target), ties in train/valid/test
    order.  Deterministic given the seed.
    """
    if len(ratios) != len(SPLIT_NAMES) or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")

    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for e in entries:
        if not e.composer_ids:
            raise ValueError(f"entry {e.song_id!r} has no composers")
        gkey = ("game", e.game_id)
        parent.setdefault(gkey, gkey)
        for c in e.composer_ids:
            union(gkey, ("composer", c))

    by_root: dict = {}
    for e in entries:
        by_root.setdefault(find(("game", e.game_id)), []).append(e)

    components = sorted(by_root.values(), key=lambda comp: min(e.song_id for e in comp))
    random.Random(seed).shuffle(components)

    total = len(entries)
    ratio_sum = sum(ratios)
    targets = [total * r / ratio_sum for r in ratios]
    counts = [0, 0, 0]
    out: dict[str, list[CorpusEntry]] = {name: [] for name in SPLIT_NAMES}
    for comp in components:
        i = min(range(3), key=lambda s: counts[s] / targets[s])
        out[SPLIT_NAMES[i]].extend(comp)
        counts[i] += len(comp)
    return out
