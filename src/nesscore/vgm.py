"""VGM register-log decoding and emission (NES APU subset, v1.61).

A VGM file is a little-endian header followed by a command stream.
``parse_vgm`` decodes the stream in one pass straight into a
``TimedWriteStream``: every wait adds to a running 44.1 kHz sample offset,
and every NES APU write (0xB4 aa dd) becomes a ``TimedWrite`` at the offset
reached so far.  The commands accepted are the four wait encodings
(0x61 nn nn, 0x62, 0x63, 0x7n), the APU write, skipped data blocks (0x67)
and the end-of-data marker (0x66).  Anything else raises a ``VgmError`` that
names the byte offset rather than being skipped: the corpora this feeds are
NES-only and corruption should be loud.  So does a wait that carries the
stream past 2^32 - 1 samples.  ``check_stream`` is the one rule for what a
``TimedWriteStream`` may hold; replay and ``write_vgm`` apply it.

Gzip-compressed .vgz images are detected by magic and decompressed
transparently.
"""

import gzip
import struct
import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .score import MAX_TOTAL_SAMPLES

MAGIC = b"Vgm "
GZIP_MAGIC = b"\x1f\x8b"

NES_APU_CLOCK_HZ = 1789773      # the 2A03's CPU clock, NTSC
VGM_VERSION = 0x161
HEADER_SIZE = 0xC0

APU_REGISTER_BASE = 0x4000
APU_REGISTER_LAST = 0x4017

WAIT_NTSC_FRAME = 735   # 44100 / 60
WAIT_PAL_FRAME = 882    # 44100 / 50

# Samples waited by each one-byte opcode (0x62, 0x63, 0x70-0x7F); 0 for the rest.
_WAIT_SAMPLES = [(op & 0x0F) + 1 if 0x70 <= op <= 0x7F else 0 for op in range(256)]
_WAIT_SAMPLES[0x62] = WAIT_NTSC_FRAME
_WAIT_SAMPLES[0x63] = WAIT_PAL_FRAME


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


class OffsetOverflow(VgmError):
    """A stream total outside what the header's 32-bit field can encode."""


class RegisterOutOfRange(ValueError):
    """Write addressed outside $4000-$4017."""


class BadWriteOffset(ValueError):
    """A write offset that breaks the stream's order or lies past its end."""

    def __init__(self, index: int, sample_offset: int, problem: str):
        super().__init__(f"write {index} at sample {sample_offset} {problem}")
        self.index = index
        self.sample_offset = sample_offset


class TimedWrite(NamedTuple):
    sample_offset: int
    register: int           # absolute, 0x4000-0x4017
    value: int


@dataclass
class TimedWriteStream:
    """Ordered APU writes with absolute 44.1 kHz sample offsets."""

    writes: list[TimedWrite] = field(default_factory=list)
    total_samples: int = 0


_APU_REGISTERS = frozenset(range(APU_REGISTER_BASE, APU_REGISTER_LAST + 1))


def check_stream(stream: TimedWriteStream) -> None:
    """Raise OffsetOverflow unless ``total_samples`` is in [0, 2^32 - 1], then,
    for the first bad write, BadWriteOffset if its offset is below the one
    before (or 0) or past ``total_samples``, or RegisterOutOfRange if its
    register is outside $4000-$4017.  Values are read as their low byte.
    """
    total = stream.total_samples
    if not 0 <= total <= MAX_TOTAL_SAMPLES:
        raise OffsetOverflow(f"total_samples {total} is outside [0, {MAX_TOTAL_SAMPLES}]")
    writes = stream.writes
    # A valid stream passes in builtins; it is walked only to name the bad write.
    offsets = [0, *map(itemgetter(0), writes), total]
    if offsets == sorted(offsets) and _APU_REGISTERS.issuperset(map(itemgetter(1), writes)):
        return
    before = 0
    for i, (offset, register, _value) in enumerate(writes):
        if offset < before:
            raise BadWriteOffset(i, offset, f"is before sample {before}")
        if offset > total:
            raise BadWriteOffset(i, offset, f"is beyond the stream end at sample {total}")
        if register not in _APU_REGISTERS:
            raise RegisterOutOfRange(f"register {register:#06x} outside $4000-$4017")
        before = offset


@dataclass
class VgmDocument:
    version: int            # BCD, e.g. 0x161
    nes_apu_clock_hz: int
    data_offset: int
    stream: TimedWriteStream


def _u32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise TruncatedFile(f"header field at {offset:#x} beyond end of file")
    return struct.unpack_from("<I", data, offset)[0]


def parse_vgm(data: bytes) -> VgmDocument:
    """Decode a VGM (or gzipped .vgz) image into its header and timed writes."""
    if data[:2] == GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:   # OSError: gzip.BadGzipFile
            raise CorruptGzip(f"gzip stream does not decompress: {exc}") from None
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic("missing 'Vgm ' magic")

    version = _u32(data, 0x08)
    if version >= 0x150:
        rel = _u32(data, 0x34)
        data_offset = 0x34 + rel if rel else 0x40
    else:
        data_offset = 0x40
    nes_apu_clock = _u32(data, 0x84) if data_offset >= 0x88 and len(data) >= 0x88 else 0
    return VgmDocument(version=version, nes_apu_clock_hz=nes_apu_clock,
                       data_offset=data_offset, stream=_decode(data, data_offset))


def _decode(data: bytes, pos: int) -> TimedWriteStream:
    writes: list[TimedWrite] = []
    append, new = writes.append, tuple.__new__
    wait_samples = _WAIT_SAMPLES
    end = len(data)
    offset = 0
    while pos < end:
        op = data[pos]
        if op == 0xB4:
            if pos + 3 > end:
                raise TruncatedFile(f"APU write truncated at offset {pos:#x}")
            aa = data[pos + 1]
            if aa > 0x17:
                if aa & 0x80:
                    raise DualChipUnsupported(f"second-chip APU write at offset {pos:#x}")
                raise UnsupportedCommand(
                    f"APU register offset {aa:#04x} out of range at offset {pos:#x}")
            # tuple.__new__ skips the Python-level TimedWrite.__new__ call
            append(new(TimedWrite, (offset, APU_REGISTER_BASE + aa, data[pos + 2])))
            pos += 3
            continue
        wait = wait_samples[op]
        if wait:
            offset += wait
            if offset > MAX_TOTAL_SAMPLES:
                raise OffsetOverflow(f"wait at offset {pos:#x} passes {MAX_TOTAL_SAMPLES} samples")
            pos += 1
        elif op == 0x61:
            if pos + 3 > end:
                raise TruncatedFile(f"wait command truncated at offset {pos:#x}")
            offset += data[pos + 1] | (data[pos + 2] << 8)
            if offset > MAX_TOTAL_SAMPLES:
                raise OffsetOverflow(f"wait at offset {pos:#x} passes {MAX_TOTAL_SAMPLES} samples")
            pos += 3
        elif op == 0x66:
            return TimedWriteStream(writes=writes, total_samples=offset)
        elif op == 0x67:
            if pos + 7 > end:
                raise TruncatedFile(f"data block header truncated at offset {pos:#x}")
            if data[pos + 1] != 0x66:
                raise UnsupportedCommand(f"malformed data block at offset {pos:#x}")
            size = struct.unpack_from("<I", data, pos + 3)[0]
            if pos + 7 + size > end:
                raise TruncatedFile(f"data block payload truncated at offset {pos:#x}")
            pos += 7 + size
        else:
            raise UnsupportedCommand(f"command {op:#04x} at offset {pos:#x}")
    raise TruncatedFile("command stream missing end-of-data (0x66)")


def flatten_to_writes(doc: VgmDocument) -> TimedWriteStream:
    """The document's timed writes; ``parse_vgm`` has already decoded them."""
    return doc.stream


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
    offset = 0
    for w in stream.writes:
        _encode_wait(w.sample_offset - offset, body)
        offset = w.sample_offset
        body += bytes((0xB4, w.register - APU_REGISTER_BASE, w.value & 0xFF))
    _encode_wait(stream.total_samples - offset, body)
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
