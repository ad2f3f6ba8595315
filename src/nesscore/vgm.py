"""VGM register-log decoding and emission (NES APU subset, v1.61).

A VGM file is a little-endian header followed by a command stream.  The
commands accepted are the four wait encodings (0x61 nn nn, 0x62, 0x63,
0x7n), the APU write (0xB4 aa dd), skipped data blocks (0x67) and the
end-of-data marker (0x66).  ``parse_vgm`` returns the ``TimedWriteStream`` the
commands encode, so ``parse_vgm(write_vgm(s)) == s``; of the header it reads
only the version and data offset, which locate the commands, and the clock.
It decodes with whole-array passes and no loop over commands: a table of
command lengths by opcode (plus the size field of a data block) gives every
byte the position of the command after it, as if a command started there;
pointer doubling (``_arrays.walk``) walks the chain from the data offset to
its first stop in about log2(commands) rounds; the offsets are one ``cumsum``
of the chain's waits, and the writes are the chain positions that hold 0xB4.
A stop other than 0x66 (an unknown opcode, a truncated command, a
second-chip write, a register above 0x17, a malformed data block, or the
end of the file) raises a ``VgmError`` that names its byte offset rather
than being skipped: the corpora this feeds are NES-only and corruption
should be loud.  So does the first wait that carries
the stream past 2^32 - 1 samples, and a header whose NES APU clock (offset
0x84) is not the NTSC 1,789,773 Hz that replay, the pitch tables and the
renderer assume.  The decoder's working memory is at most about 26 bytes
per byte of the decompressed image (int32 positions).

A ``TimedWriteStream`` holds its writes as three read-only int64 columns,
``offsets``, ``registers`` and ``values``, plus ``total_samples``;
``check_stream`` is the one rule for what they may hold, and replay and
``write_vgm`` apply it.

Gzip-compressed .vgz images are detected by magic and decompressed
transparently.
"""

import gzip
import struct
import zlib
from numbers import Integral
from typing import Iterable, NamedTuple

import numpy as np

from ._arrays import byte_buffer, walk
from .score import MAX_TOTAL_SAMPLES, SAMPLE_RATE

MAGIC = b"Vgm "
GZIP_MAGIC = b"\x1f\x8b"

NES_APU_CLOCK_HZ = 1789773      # the 2A03's CPU clock, NTSC
VGM_VERSION = 0x161
HEADER_SIZE = 0xC0

APU_REGISTER_BASE = 0x4000
APU_REGISTER_LAST = 0x4017

WAIT_NTSC_FRAME = SAMPLE_RATE // 60
WAIT_PAL_FRAME = SAMPLE_RATE // 50

# Samples waited by each one-byte opcode (0x62, 0x63, 0x70-0x7F); 0 for the rest.
_WAIT_SAMPLES = np.array([(op & 0x0F) + 1 if 0x70 <= op <= 0x7F else 0 for op in range(256)])
_WAIT_SAMPLES[0x62] = WAIT_NTSC_FRAME
_WAIT_SAMPLES[0x63] = WAIT_PAL_FRAME
# Bytes of each command by opcode; 0 for 0x66, unknown opcodes and 0x67,
# whose length is read from its size field.
_COMMAND_BYTES = np.where(_WAIT_SAMPLES > 0, 1, 0).astype(np.int8)
_COMMAND_BYTES[[0x61, 0xB4]] = 3


class VgmError(ValueError):
    """Base error for VGM parsing/emission."""


class BadMagic(VgmError):
    """Input is not a VGM file."""


class CorruptGzip(VgmError):
    """A .vgz image whose gzip stream does not decompress."""


class TruncatedFile(VgmError):
    """Input ends before the command stream does."""


class UnsupportedCommand(VgmError):
    """Command outside the NES APU subset."""


class DualChipUnsupported(VgmError):
    """0xB4 write addressed to a second APU (address high bit set)."""


class UnsupportedClock(VgmError):
    """A header NES APU clock other than the NTSC 2A03's, which is all the
    pipeline models.  Per the VGM specification, bit 31 of the field asks for
    a second APU and bit 30 for the Famicom Disk System's sound; either one
    set makes the value differ."""

    def __init__(self, clock: int):
        super().__init__(f"NES APU clock {clock} ({clock:#010x}) at header offset 0x84 "
                         f"is not {NES_APU_CLOCK_HZ} Hz (NTSC, bits 30 and 31 clear)")
        self.clock = clock


class OffsetOverflow(VgmError):
    """A stream total outside what the header's 32-bit field can encode."""


class RegisterOutOfRange(ValueError):
    """Write addressed outside $4000-$4017."""


class BadWriteOffset(ValueError):
    """A write offset that breaks the stream's order or lies past its end."""

    def __init__(self, index: int, sample_offset, problem: str):
        super().__init__(f"write {index} at sample {sample_offset} {problem}")
        self.index = index
        self.sample_offset = sample_offset


class BadWriteValue(ValueError):
    """A write value that is not an int in [0, 255]."""

    def __init__(self, index: int, value):
        super().__init__(f"write {index} value {value!r} is not an int in [0, 255]")
        self.index = index
        self.value = value


class TimedWrite(NamedTuple):
    sample_offset: int
    register: int           # absolute, 0x4000-0x4017
    value: int


_INT64_MAX = np.iinfo(np.int64).max


def _column(items) -> np.ndarray:
    """A read-only int64 copy of ``items``, or an object array of the items
    as given if one is not an int that int64 holds, which no write may be."""
    column = np.array(items)
    if not column.size or column.dtype.kind in "biu" and column.max() <= _INT64_MAX:
        column = column.astype(np.int64, copy=False)
    else:   # numpy found no integer type: floats, huge ints, or ints of mixed types
        column = np.array(items, object)    # as given, for check_stream to name
        if all(isinstance(x, Integral) and -_INT64_MAX - 1 <= x <= _INT64_MAX
               for x in column.flat):
            column = column.astype(np.int64)
    column.flags.writeable = False
    return column


class TimedWriteStream:
    """Ordered APU writes with absolute 44.1 kHz sample offsets.

    The writes are three read-only columns: ``offsets``, ``registers``
    (absolute, 0x4000-0x4017) and ``values``, int64 unless an item is not an
    int that int64 holds, which ``check_stream`` rejects.  Build a stream
    from ``TimedWrite`` tuples, ``TimedWriteStream(writes, total_samples)``, or
    from 1-D arrays of one length with ``from_columns``; the columns are copies.
    """

    __slots__ = ("offsets", "registers", "values", "total_samples")

    def __init__(self, writes: Iterable[TimedWrite] = (), total_samples: int = 0):
        writes = list(writes)
        self.offsets, self.registers, self.values = map(
            _column, zip(*writes) if writes else ((), (), ()))
        self.total_samples = total_samples

    @classmethod
    def from_columns(cls, offsets, registers, values, total_samples: int) -> "TimedWriteStream":
        columns = [_column(c) for c in (offsets, registers, values)]
        if any(c.ndim != 1 for c in columns):
            raise ValueError(f"the columns are not all 1-D: shapes {[c.shape for c in columns]}")
        if not len(columns[0]) == len(columns[1]) == len(columns[2]):
            raise ValueError("the offset, register and value columns differ in length")
        stream = cls.__new__(cls)
        stream.offsets, stream.registers, stream.values = columns
        stream.total_samples = total_samples
        return stream

    @property
    def writes(self) -> list[TimedWrite]:
        """The writes as ``TimedWrite`` tuples, a new list on every read."""
        columns = (self.offsets.tolist(), self.registers.tolist(), self.values.tolist())
        return list(map(TimedWrite._make, zip(*columns)))

    def __eq__(self, other):
        if not isinstance(other, TimedWriteStream):
            return NotImplemented
        return self.total_samples == other.total_samples and all(
            np.array_equal(a, b) for a, b in ((self.offsets, other.offsets),
                                              (self.registers, other.registers),
                                              (self.values, other.values)))

    def __repr__(self) -> str:
        return (f"TimedWriteStream.from_columns({self.offsets!r}, {self.registers!r}, "
                f"{self.values!r}, total_samples={self.total_samples!r})")


def _is_int(column: np.ndarray) -> np.ndarray:
    if column.dtype != object:
        return np.ones(len(column), bool)
    return np.fromiter((isinstance(x, Integral) for x in column.tolist()), bool, len(column))


def check_stream(stream: TimedWriteStream) -> None:
    """Raise OffsetOverflow unless ``total_samples`` is an int in
    [0, 2^32 - 1], then, for the first bad write: BadWriteOffset if its offset
    is not an int, is below the one before (or 0) or is past ``total_samples``;
    RegisterOutOfRange if its register is not an int in $4000-$4017;
    BadWriteValue if its value is not an int in [0, 255].
    """
    total = stream.total_samples
    if not isinstance(total, Integral):
        raise OffsetOverflow(f"total_samples {total!r} is not an int")
    if not 0 <= total <= MAX_TOTAL_SAMPLES:
        raise OffsetOverflow(f"total_samples {total} is outside [0, {MAX_TOTAL_SAMPLES}]")
    offsets, registers, values = columns = stream.offsets, stream.registers, stream.values
    if not len(offsets) or all(c.dtype != object for c in columns) and (
            offsets[0] >= 0 and offsets[-1] <= total and (offsets[1:] >= offsets[:-1]).all()
            and registers.min() >= APU_REGISTER_BASE and registers.max() <= APU_REGISTER_LAST
            and values.min() >= 0 and values.max() <= 0xFF):
        return
    # Name the first bad write: items that are not ints read as 0 in the masks.
    ints = [_is_int(c) for c in columns]
    offsets, registers, values = (np.where(ok, c, 0) for ok, c in zip(ints, columns))
    before = np.concatenate(([0], offsets[:-1]))
    bad = (~ints[0] | (offsets < before) | (offsets > total)
           | ~ints[1] | (registers < APU_REGISTER_BASE) | (registers > APU_REGISTER_LAST)
           | ~ints[2] | (values < 0) | (values > 0xFF))
    i = int(bad.argmax())
    offset, register, value = (c.item(i) for c in columns)
    if not ints[0][i]:
        raise BadWriteOffset(i, offset, "is not an int")
    if offset < before.item(i):
        raise BadWriteOffset(i, offset, f"is before sample {before.item(i)}")
    if offset > total:
        raise BadWriteOffset(i, offset, f"is beyond the stream end at sample {total}")
    if not ints[1][i]:
        raise RegisterOutOfRange(f"register {register!r} is not an int")
    if not APU_REGISTER_BASE <= register <= APU_REGISTER_LAST:
        raise RegisterOutOfRange(f"register {register:#06x} outside $4000-$4017")
    raise BadWriteValue(i, value)


def _u32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise TruncatedFile(f"header field at {offset:#x} beyond end of file")
    return struct.unpack_from("<I", data, offset)[0]


def parse_vgm(data: bytes) -> TimedWriteStream:
    """Decode a VGM (or gzipped .vgz) image into its timed writes."""
    if data[:2] == GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:   # OSError: gzip.BadGzipFile
            raise CorruptGzip(f"gzip stream does not decompress: {exc}") from None
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic("missing 'Vgm ' magic")

    if _u32(data, 0x08) >= 0x150:      # the version, BCD
        rel = _u32(data, 0x34)
        data_offset = 0x34 + rel if rel else 0x40
    else:
        data_offset = 0x40
    # a header whose data starts before 0x88 has no clock field
    if data_offset >= 0x88 and len(data) >= 0x88:
        clock = _u32(data, 0x84)
        if clock != NES_APU_CLOCK_HZ:
            raise UnsupportedClock(clock)
    return _decode(data, data_offset)


def _stop_error(data: bytes, pos: int) -> VgmError:
    """The error of a command stream that stops at ``pos`` short of 0x66."""
    end = len(data)
    if pos >= end:
        return TruncatedFile("command stream missing end-of-data (0x66)")
    op = data[pos]
    if op == 0xB4:
        if pos + 3 > end:
            return TruncatedFile(f"APU write truncated at offset {pos:#x}")
        if data[pos + 1] & 0x80:
            return DualChipUnsupported(f"second-chip APU write at offset {pos:#x}")
        return UnsupportedCommand(
            f"APU register offset {data[pos + 1]:#04x} out of range at offset {pos:#x}")
    if op == 0x61:
        return TruncatedFile(f"wait command truncated at offset {pos:#x}")
    if op == 0x67:
        if pos + 7 > end:
            return TruncatedFile(f"data block header truncated at offset {pos:#x}")
        if data[pos + 1] != 0x66:
            return UnsupportedCommand(f"malformed data block at offset {pos:#x}")
        return TruncatedFile(f"data block payload truncated at offset {pos:#x}")
    return UnsupportedCommand(f"command {op:#04x} at offset {pos:#x}")


def _decode(data: bytes, start: int) -> TimedWriteStream:
    end = len(data)
    if start >= end:
        raise _stop_error(data, start)
    buf, index = byte_buffer(data)      # operands read past the end are 0
    op = buf[:end]

    # step[p]: where the command after one at p starts.  A stop points at
    # itself: 0x66, an unknown opcode, a register past 0x17, a command that
    # runs past the end, and the end itself (step[end]).
    size = _COMMAND_BYTES[op]
    size[(op == 0xB4) & (buf[1:end + 1] > 0x17)] = 0
    tail = np.arange(max(end - 2, 0), end)      # only these can run past the end
    size[tail[tail + size[tail] > end]] = 0
    step = np.arange(end + 1, dtype=index)
    step[:-1] += size
    blocks = np.flatnonzero(op == 0x67)
    after = blocks + 7 + buf[blocks[:, None] + np.arange(3, 7)].view("<u4")[:, 0]
    whole = (buf[blocks + 1] == 0x66) & (after <= end)
    step[blocks[whole]] = after[whole]
    del size, tail, blocks, after, whole
    (chain,), (stop,) = walk(step, [start])
    del step

    ops = op[chain]
    waits = _WAIT_SAMPLES[ops]
    at = chain[ops == 0x61]
    waits[ops == 0x61] = buf[at + 1] | buf[at + 2].astype(np.int64) << 8
    elapsed = np.cumsum(waits)
    total = int(elapsed[-1]) if len(elapsed) else 0
    if total > MAX_TOTAL_SAMPLES:
        at = int(chain[elapsed.searchsorted(MAX_TOTAL_SAMPLES, "right")])
        raise OffsetOverflow(f"wait at offset {at:#x} passes {MAX_TOTAL_SAMPLES} samples")
    if buf[stop] != 0x66:
        raise _stop_error(data, stop)
    writes = ops == 0xB4
    at = chain[writes]
    registers = APU_REGISTER_BASE + buf[at + 1].astype(np.int64)
    return TimedWriteStream.from_columns(elapsed[writes], registers, buf[at + 2], total)


def flatten_to_writes(stream: TimedWriteStream) -> TimedWriteStream:
    """``stream`` itself: ``parse_vgm`` returns the timed writes already.  Kept
    only because the benchmark calls it."""
    return stream


def _encode_wait(delta: int, out: bytearray) -> None:
    while delta:
        if delta == WAIT_NTSC_FRAME:
            out.append(0x62)
            return
        if delta <= 16:
            out.append(0x70 + delta - 1)
            return
        n = min(delta, 0xFFFF)
        out += bytes((0x61, n & 0xFF, n >> 8))
        delta -= n


def write_vgm(stream: TimedWriteStream) -> bytes:
    """Emit a minimal valid VGM v1.61 image that round-trips a stream
    ``check_stream`` accepts; otherwise raise its error, writing nothing."""
    check_stream(stream)
    body = bytearray()
    before = 0
    for offset, register, value in zip(stream.offsets.tolist(), stream.registers.tolist(),
                                       stream.values.tolist()):
        _encode_wait(offset - before, body)
        before = offset
        body += bytes((0xB4, register - APU_REGISTER_BASE, value))
    _encode_wait(stream.total_samples - before, body)
    body.append(0x66)

    header = bytearray(HEADER_SIZE)
    header[0:4] = MAGIC
    struct.pack_into("<I", header, 0x04, HEADER_SIZE + len(body) - 4)  # EOF offset
    struct.pack_into("<I", header, 0x08, VGM_VERSION)
    struct.pack_into("<I", header, 0x18, stream.total_samples)
    struct.pack_into("<I", header, 0x24, 60)                           # refresh rate
    struct.pack_into("<I", header, 0x34, HEADER_SIZE - 0x34)           # data offset
    struct.pack_into("<I", header, 0x84, NES_APU_CLOCK_HZ)
    return bytes(header) + bytes(body)
