"""The line-by-line NESSCORE reader that the vectorised one replaced.

Kept as the reference the reader tests compare against: it decodes the
whole file, splits lines and calls int() on each field, so it accepts
anything int() does ("+5", " 5", "5\\t", non-ASCII digits) and lets a
UnicodeDecodeError escape.  Wherever every field is plain ASCII decimal the
two readers must agree.
"""

from nesscore.score import (
    _FIELD_BOUNDS,
    BadFieldValue,
    ExpressiveFrame,
    ExpressiveScore,
    MalformedHeader,
)


def read_score_text_by_line(data: bytes) -> ExpressiveScore:
    text = data.decode("utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedHeader("empty file")
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "NESSCORE":
        raise MalformedHeader(f"bad header line {lines[0]!r}")
    if head[1] != "1":
        raise MalformedHeader(f"unsupported version {head[1]!r}")
    try:
        rate_hz = float(head[2])
        n_frames = int(head[3])
    except ValueError as exc:
        raise MalformedHeader(f"bad header field: {exc}") from None
    if rate_hz <= 0 or n_frames < 0:
        raise MalformedHeader(f"rate {rate_hz} / frame count {n_frames} out of range")
    if len(lines) - 1 != n_frames:
        raise MalformedHeader(f"expected {n_frames} frame lines, found {len(lines) - 1}")
    frames = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != 10:
            raise BadFieldValue(i, f"expected 10 fields, found {len(parts)}")
        values = []
        for (name, lo, hi), part in zip(_FIELD_BOUNDS, parts):
            try:
                v = int(part)
            except ValueError:
                raise BadFieldValue(i, f"{name}: {part!r} is not an integer") from None
            if not lo <= v <= hi:
                raise BadFieldValue(i, f"{name}: {v} outside [{lo},{hi}]")
            values.append(v)
        frames.append(ExpressiveFrame(*values))
    return ExpressiveScore(rate_hz=rate_hz, frames=frames)
