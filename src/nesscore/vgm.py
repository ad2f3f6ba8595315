"""VGM register-log decoding and emission (NES APU subset, v1.61).

A VGM file is a little-endian header followed by a command stream.
``parse_vgm`` decodes the stream in one pass straight into a
``TimedWriteStream``: every wait adds to a running 44.1 kHz sample offset,
and every NES APU write (0xB4 aa dd) becomes a ``TimedWrite`` at the offset
reached so far.  The commands accepted are the four wait encodings
(0x61 nn nn, 0x62, 0x63, 0x7n), the APU write, skipped data blocks (0x67)
and the end-of-data marker (0x66).  Anything else raises a ``VgmError`` that
names the byte offset rather than being skipped: the corpora this feeds are
NES-only and corruption should be loud.

Gzip-compressed .vgz images are detected by magic and decompressed
transparently.
"""

import gzip
import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

from .score import SAMPLE_RATE

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
    """Sample offset exceeds what 32-bit wait fields can encode."""


class TimedWrite(NamedTuple):
    sample_offset: int
    register: int           # absolute, 0x4000-0x4017
    value: int


@dataclass
class TimedWriteStream:
    """Ordered APU writes with absolute 44.1 kHz sample offsets."""

    writes: list[TimedWrite] = field(default_factory=list)
    total_samples: int = 0
    sample_rate: int = SAMPLE_RATE


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
            pos += 1
        elif op == 0x61:
            if pos + 3 > end:
                raise TruncatedFile(f"wait command truncated at offset {pos:#x}")
            offset += data[pos + 1] | (data[pos + 2] << 8)
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
    """Emit a minimal valid VGM v1.61 image that round-trips the stream."""
    if stream.total_samples > 0xFFFFFFFF:
        raise OffsetOverflow(f"total_samples {stream.total_samples} exceeds 32 bits")

    body = bytearray()
    offset = 0
    for w in stream.writes:
        if w.sample_offset > 0xFFFFFFFF:
            raise OffsetOverflow(f"write offset {w.sample_offset} exceeds 32 bits")
        if w.sample_offset < offset:
            raise ValueError("write offsets must be non-decreasing")
        if not APU_REGISTER_BASE <= w.register <= APU_REGISTER_LAST:
            raise ValueError(f"register {w.register:#06x} outside APU range")
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
