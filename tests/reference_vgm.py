"""The two-pass VGM decoder that ``parse_vgm`` replaced, and the write-stream
check that walked a list of writes.

Kept as the references the decoder and stream-check tests compare against.
``parse_commands`` parses the command stream into a list of one dataclass
per command, then ``flatten_to_writes`` walks that list a second time to add
up the waits; both decoders share the header layout, the error types and the
offsets named in error messages.  ``check_stream`` states the write-stream
rule one write at a time, in stream order, over ``stream.writes``.
"""

import gzip
import struct
import zlib
from dataclasses import dataclass
from numbers import Integral
from typing import Union

from nesscore.score import MAX_TOTAL_SAMPLES
from nesscore.vgm import (
    APU_REGISTER_BASE,
    GZIP_MAGIC,
    MAGIC,
    NES_APU_CLOCK_HZ,
    WAIT_NTSC_FRAME,
    WAIT_PAL_FRAME,
    BadMagic,
    BadWriteOffset,
    BadWriteValue,
    CorruptGzip,
    DualChipUnsupported,
    OffsetOverflow,
    RegisterOutOfRange,
    TimedWrite,
    TimedWriteStream,
    TruncatedFile,
    UnsupportedClock,
    UnsupportedCommand,
)


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


def _u32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise TruncatedFile(f"header field at {offset:#x} beyond end of file")
    return struct.unpack_from("<I", data, offset)[0]


def parse_commands(data: bytes) -> list:
    """Parse a VGM (or gzipped .vgz) image into its commands."""
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
    if data_offset >= 0x88 and len(data) >= 0x88 and nes_apu_clock != NES_APU_CLOCK_HZ:
        raise UnsupportedClock(nes_apu_clock)
    return _parse_commands(data, data_offset)


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


def flatten_to_writes(commands: list) -> TimedWriteStream:
    """Accumulate waits into absolute sample offsets for every APU write."""
    writes: list[TimedWrite] = []
    offset = 0
    for cmd in commands:
        if isinstance(cmd, Wait):
            offset += cmd.samples
        elif isinstance(cmd, ApuWrite):
            writes.append(TimedWrite(offset, APU_REGISTER_BASE + cmd.register_offset,
                                     cmd.value))
        # DataBlock / EndOfData contribute nothing
    return TimedWriteStream(writes=writes, total_samples=offset)


def check_stream(stream: TimedWriteStream) -> None:
    """The write-stream rule, one write at a time: the total first, then each
    write's offset, register and value, raising for the first bad one."""
    total = stream.total_samples
    if not isinstance(total, Integral):
        raise OffsetOverflow(f"total_samples {total!r} is not an int")
    if not 0 <= total <= MAX_TOTAL_SAMPLES:
        raise OffsetOverflow(f"total_samples {total} is outside [0, {MAX_TOTAL_SAMPLES}]")
    before = 0
    for i, (offset, register, value) in enumerate(stream.writes):
        if not isinstance(offset, Integral):
            raise BadWriteOffset(i, offset, "is not an int")
        if offset < before:
            raise BadWriteOffset(i, offset, f"is before sample {before}")
        if offset > total:
            raise BadWriteOffset(i, offset, f"is beyond the stream end at sample {total}")
        if not isinstance(register, Integral):
            raise RegisterOutOfRange(f"register {register!r} is not an int")
        if not 0x4000 <= register <= 0x4017:
            raise RegisterOutOfRange(f"register {register:#06x} outside $4000-$4017")
        if not (isinstance(value, Integral) and 0 <= value <= 0xFF):
            raise BadWriteValue(i, value)
        before = offset
