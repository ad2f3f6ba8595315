"""VGM register-log parsing and emission (NES APU subset, v1.61).

A VGM file is a little-endian header followed by a command stream.  The
commands we accept are the four wait encodings (0x61 nn nn, 0x62, 0x63,
0x7n), the NES APU write (0xB4 aa dd), skipped data blocks (0x67) and the
end-of-data marker (0x66).  Anything else raises rather than being silently
skipped: the corpora this feeds are NES-only and corruption should be loud.

Gzip-compressed .vgz images are detected by magic and decompressed
transparently.
"""

import gzip
import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Union

MAGIC = b"Vgm "
GZIP_MAGIC = b"\x1f\x8b"

SAMPLE_RATE = 44100
NES_APU_CLOCK_HZ = 1789773
VGM_VERSION = 0x161
HEADER_SIZE = 0xC0

APU_REGISTER_BASE = 0x4000
APU_REGISTER_LAST = 0x4017

WAIT_NTSC_FRAME = 735   # 44100 / 60
WAIT_PAL_FRAME = 882    # 44100 / 50


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


@dataclass(frozen=True)
class Wait:
    samples: int


@dataclass(frozen=True)
class ApuWrite:
    register_offset: int  # 0x00-0x17, relative to $4000
    value: int


@dataclass(frozen=True)
class DataBlock:
    block_type: int
    size: int


@dataclass(frozen=True)
class EndOfData:
    pass


VgmCommand = Union[Wait, ApuWrite, DataBlock, EndOfData]


@dataclass
class VgmDocument:
    version: int            # BCD, e.g. 0x161
    nes_apu_clock_hz: int
    data_offset: int
    commands: list = field(default_factory=list)


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


def _u32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise TruncatedFile(f"header field at {offset:#x} beyond end of file")
    return struct.unpack_from("<I", data, offset)[0]


def parse_vgm(data: bytes) -> VgmDocument:
    """Parse a VGM (or gzipped .vgz) image into a command document."""
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

    commands = _parse_commands(data, data_offset)
    return VgmDocument(version=version, nes_apu_clock_hz=nes_apu_clock,
                       data_offset=data_offset, commands=commands)


def _parse_commands(data: bytes, pos: int) -> list:
    commands: list[VgmCommand] = []
    end = len(data)

    def need(n, what):
        if pos + n > end:
            raise TruncatedFile(f"{what} truncated at offset {pos:#x}")

    while True:
        if pos >= end:
            raise TruncatedFile("command stream missing end-of-data (0x66)")
        op = data[pos]
        if op == 0x66:
            commands.append(EndOfData())
            return commands
        if op == 0x61:
            need(3, "wait command")
            n = data[pos + 1] | (data[pos + 2] << 8)
            if n:  # zero-sample waits are no-ops
                commands.append(Wait(n))
            pos += 3
        elif op == 0x62:
            commands.append(Wait(WAIT_NTSC_FRAME))
            pos += 1
        elif op == 0x63:
            commands.append(Wait(WAIT_PAL_FRAME))
            pos += 1
        elif 0x70 <= op <= 0x7F:
            commands.append(Wait((op & 0x0F) + 1))
            pos += 1
        elif op == 0xB4:
            need(3, "APU write")
            aa, dd = data[pos + 1], data[pos + 2]
            if aa & 0x80:
                raise DualChipUnsupported(f"second-chip APU write at offset {pos:#x}")
            if aa > 0x17:
                raise UnsupportedCommand(
                    f"APU register offset {aa:#04x} out of range at offset {pos:#x}")
            commands.append(ApuWrite(aa, dd))
            pos += 3
        elif op == 0x67:
            need(7, "data block header")
            if data[pos + 1] != 0x66:
                raise UnsupportedCommand(f"malformed data block at offset {pos:#x}")
            block_type = data[pos + 2]
            size = struct.unpack_from("<I", data, pos + 3)[0]
            need(7 + size, "data block payload")
            commands.append(DataBlock(block_type, size))
            pos += 7 + size
        else:
            raise UnsupportedCommand(f"command {op:#04x} at offset {pos:#x}")


def flatten_to_writes(doc: VgmDocument) -> TimedWriteStream:
    """Accumulate waits into absolute sample offsets for every APU write."""
    writes: list[TimedWrite] = []
    offset = 0
    for cmd in doc.commands:
        if isinstance(cmd, Wait):
            offset += cmd.samples
        elif isinstance(cmd, ApuWrite):
            writes.append(TimedWrite(offset, APU_REGISTER_BASE + cmd.register_offset,
                                     cmd.value))
        # DataBlock / EndOfData contribute nothing
    return TimedWriteStream(writes=writes, total_samples=offset)


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
