"""VGM parsing and emission, checked against the public v1.61 format docs."""

import gzip
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_vgm
from conftest import mutate
from nesscore import vgm
from nesscore.score import MAX_TOTAL_SAMPLES
from nesscore.vgm import (
    HEADER_SIZE,
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
    check_stream,
    flatten_to_writes,
    parse_vgm,
    write_vgm,
)


def make_vgm(body: bytes, version: int = 0x161) -> bytes:
    """Header laid out by hand from the public format docs (independent oracle)."""
    header = bytearray(0xC0)
    header[0:4] = b"Vgm "
    struct.pack_into("<I", header, 0x04, 0xC0 + len(body) - 4)
    struct.pack_into("<I", header, 0x08, version)
    struct.pack_into("<I", header, 0x34, 0xC0 - 0x34)
    struct.pack_into("<I", header, 0x84, 1789773)
    return bytes(header) + body


class TestParse:
    def test_header_fields(self):
        # the v1.61 header's data offset puts the commands at 0xC0: the zero
        # bytes before it would each be an unknown command
        stream = parse_vgm(make_vgm(b"\x66"))
        assert type(stream) is TimedWriteStream and stream == TimedWriteStream()

    def test_wait_16bit(self):
        # 0x012C little-endian = 300
        assert parse_vgm(make_vgm(bytes((0x61, 0x2C, 0x01, 0x66)))).total_samples == 300

    def test_wait_frame_shorthands(self):
        stream = parse_vgm(make_vgm(bytes((0x62, 0x63, 0x70, 0x7F, 0x66))))
        assert stream.total_samples == 735 + 882 + 1 + 16
        # a write after each wait shows each wait's own length
        waits = (0x62, 0x63, 0x70, 0x7F)
        body = b"".join(bytes((op, 0xB4, 0x15, i)) for i, op in enumerate(waits))
        stream = parse_vgm(make_vgm(body + b"\x66"))
        assert [w.sample_offset for w in stream.writes] == [735, 1617, 1618, 1634]

    def test_zero_wait_dropped(self):
        assert parse_vgm(make_vgm(bytes((0x61, 0x00, 0x00, 0x66)))) == TimedWriteStream()

    def test_apu_write(self):
        stream = parse_vgm(make_vgm(bytes((0xB4, 0x15, 0x0F, 0x66))))
        assert stream.writes == [TimedWrite(0, 0x4015, 0x0F)]
        w = stream.writes[0]
        assert type(w) is TimedWrite and (w.register, w.value) == (0x4015, 0x0F)

    def test_data_block_skipped(self):
        body = bytes((0x67, 0x66, 0xC2, 0x04, 0x00, 0x00, 0x00)) + b"\xde\xad\xbe\xef"
        stream = parse_vgm(make_vgm(body + bytes((0xB4, 0x00, 0x3F, 0x66))))
        # the block is skipped: the write after it is unaffected
        assert stream == TimedWriteStream([TimedWrite(0, 0x4000, 0x3F)])

    def test_gzip_transparent(self):
        plain = make_vgm(bytes((0x62, 0x66)))
        assert parse_vgm(gzip.compress(plain)) == parse_vgm(plain)
        assert parse_vgm(plain).total_samples == 735

    def test_corrupt_gzip_is_vgm_error(self):
        vgz = gzip.compress(make_vgm(bytes((0xB4, 0x15, 0x0F, 0x62, 0x66))))
        with pytest.raises(CorruptGzip):
            parse_vgm(vgz[:-12])
        for bit in range(8 * len(vgz)):    # every single-bit flip
            damaged = bytearray(vgz)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                parse_vgm(bytes(damaged))
            except vgm.VgmError:
                pass

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_vgm(b"\x00" + make_vgm(b"\x66")[1:])

    def test_truncated_header(self):
        with pytest.raises(TruncatedFile):
            parse_vgm(b"Vgm \x00\x00")

    def test_missing_terminator(self):
        with pytest.raises(TruncatedFile):
            parse_vgm(make_vgm(bytes((0x62,))))

    def test_truncated_wait_operand(self):
        with pytest.raises(TruncatedFile):
            parse_vgm(make_vgm(bytes((0x61, 0x10))))

    def test_unsupported_command_names_offset(self):
        with pytest.raises(UnsupportedCommand) as exc:
            parse_vgm(make_vgm(bytes((0x51, 0x10, 0x20, 0x66))))
        assert "0xc0" in str(exc.value)

    def test_dual_chip_rejected(self):
        with pytest.raises(DualChipUnsupported):
            parse_vgm(make_vgm(bytes((0xB4, 0x80, 0x00, 0x66))))

    def test_register_offset_out_of_range(self):
        with pytest.raises(UnsupportedCommand):
            parse_vgm(make_vgm(bytes((0xB4, 0x18, 0x00, 0x66))))

    @pytest.mark.parametrize("clock", [1662607, 0, 4000000, 1789773 | 1 << 30, 1789773 | 1 << 31],
                             ids=["PAL", "zero", "4 MHz", "FDS bit 30", "dual chip bit 31"])
    def test_clock_other_than_ntsc_refused(self, clock):
        image = bytearray(make_vgm(bytes((0xB4, 0x15, 0x0F, 0x62, 0x66))))
        struct.pack_into("<I", image, 0x84, clock)
        with pytest.raises(UnsupportedClock) as exc:
            parse_vgm(bytes(image))
        assert exc.value.clock == clock
        assert "0x84" in str(exc.value) and f"clock {clock} " in str(exc.value)
        assert outcome(decode_reference, bytes(image)) == (UnsupportedClock, str(exc.value))

    def test_clock_field_inside_the_data_is_not_read(self):
        # v1.50 data starting at 0x80: bytes 0x84-0x87 are commands, not a clock
        header = bytearray(0x80)
        header[0:4] = b"Vgm "
        struct.pack_into("<I", header, 0x08, 0x150)
        struct.pack_into("<I", header, 0x34, 0x80 - 0x34)
        stream = parse_vgm(bytes(header) + bytes((0x62, 0x62, 0xB4, 0x15, 0x0F, 0x66)))
        assert stream == TimedWriteStream([TimedWrite(1470, 0x4015, 0x0F)], 1470)

    def test_old_version_data_at_0x40(self):
        # before v1.50 the field at 0x34 is not a data offset: one read here
        # would point past the end of the file
        header = bytearray(0x40)
        header[0:4] = b"Vgm "
        struct.pack_into("<I", header, 0x08, 0x101)
        struct.pack_into("<I", header, 0x34, 0x100)
        stream = parse_vgm(bytes(header) + bytes((0x62, 0xB4, 0x15, 0x0F, 0x66)))
        assert stream == TimedWriteStream([TimedWrite(735, 0x4015, 0x0F)], 735)


class TestFlatten:
    def test_wait_then_write(self):
        parsed = parse_vgm(make_vgm(bytes((0x61, 0x64, 0x00, 0xB4, 0x00, 0x3F, 0x66))))
        stream = flatten_to_writes(parsed)
        assert stream is parsed
        assert stream.writes == [TimedWrite(100, 0x4000, 0x3F)]
        assert stream.total_samples == 100

    def test_write_at_zero(self):
        stream = flatten_to_writes(parse_vgm(make_vgm(bytes((0xB4, 0x15, 0x0F, 0x66)))))
        assert stream.writes == [TimedWrite(0, 0x4015, 0x0F)]
        assert stream.total_samples == 0

    def test_waits_only(self):
        stream = flatten_to_writes(parse_vgm(make_vgm(bytes((0x62, 0x62, 0x66)))))
        assert stream.writes == []
        assert stream.total_samples == 1470

    def test_monotone_offsets(self):
        body = bytes((0xB4, 0x00, 1, 0x70, 0xB4, 0x01, 2, 0x62, 0xB4, 0x02, 3, 0x66))
        stream = flatten_to_writes(parse_vgm(make_vgm(body)))
        offsets = [w.sample_offset for w in stream.writes]
        assert offsets == sorted(offsets) == [0, 1, 736]


class TestWrite:
    def test_empty_stream(self):
        data = write_vgm(TimedWriteStream())
        assert data[-1] == 0x66
        assert len(data) == 0xC0 + 1
        assert parse_vgm(data) == TimedWriteStream()

    def test_single_write_at_offset_300(self):
        stream = TimedWriteStream([TimedWrite(300, 0x4000, 0xBF)], total_samples=300)
        data = write_vgm(stream)
        assert bytes((0x61, 0x2C, 0x01, 0xB4, 0x00, 0xBF)) in data
        assert parse_vgm(data) == stream

    def test_write_at_zero_has_no_leading_wait(self):
        stream = TimedWriteStream([TimedWrite(0, 0x4015, 1)], total_samples=10)
        assert write_vgm(stream)[0xC0] == 0xB4

    def test_frame_wait_uses_shorthand(self):
        stream = TimedWriteStream([TimedWrite(735, 0x4015, 1)], total_samples=735)
        assert write_vgm(stream)[0xC0] == 0x62

    def test_offset_overflow(self):
        with pytest.raises(OffsetOverflow):
            write_vgm(TimedWriteStream(total_samples=0x1_0000_0000))

    def test_long_wait_chains(self):
        stream = TimedWriteStream([TimedWrite(200_000, 0x4002, 7)],
                                  total_samples=200_000)
        assert parse_vgm(write_vgm(stream)) == stream

    def test_longest_stream_round_trips(self):
        stream = TimedWriteStream([TimedWrite(MAX_TOTAL_SAMPLES, 0x4015, 0)],
                                  total_samples=MAX_TOTAL_SAMPLES)
        assert parse_vgm(write_vgm(stream)) == stream


# 65,537 of the longest 16-bit wait span 2^32 - 1 samples, the most a stream may.
LONGEST_WAITS = b"\x61\xff\xff" * 65537


class TestTotalBound:
    def test_longest_waits_parse(self):
        stream = parse_vgm(make_vgm(LONGEST_WAITS + b"\x66"))
        assert stream.total_samples == MAX_TOTAL_SAMPLES == 2 ** 32 - 1

    @pytest.mark.parametrize("wait", [b"\x61\xff\xff", b"\x61\x01\x00", b"\x70"],
                             ids=["longest", "one sample, 0x61", "one sample, 0x70"])
    def test_one_more_wait_overflows(self, wait):
        # the first command past the longest waits sits at 0xc0 + 3 * 65537
        with pytest.raises(OffsetOverflow) as exc:
            parse_vgm(make_vgm(LONGEST_WAITS + wait + b"\x66"))
        assert str(exc.value) == "wait at offset 0x300c3 passes 4294967295 samples"

    def test_overflow_raises_before_later_faults(self):
        with pytest.raises(OffsetOverflow):
            parse_vgm(make_vgm(LONGEST_WAITS + b"\x62\x51"))

    def test_zero_wait_at_the_bound(self):
        stream = parse_vgm(make_vgm(LONGEST_WAITS + b"\x61\x00\x00\xb4\x15\x01\x66"))
        assert stream.writes == [TimedWrite(MAX_TOTAL_SAMPLES, 0x4015, 1)]


@st.composite
def streams(draw):
    deltas = draw(st.lists(
        st.tuples(st.integers(0, 100_000), st.integers(0, 0x17), st.integers(0, 255)),
        max_size=40))
    writes = []
    offset = 0
    for delta, reg, val in deltas:
        offset += delta
        writes.append(TimedWrite(offset, 0x4000 + reg, val))
    tail = draw(st.integers(0, 100_000))
    return TimedWriteStream(writes, total_samples=offset + tail)


class TestProperties:
    @given(streams())
    @settings(max_examples=150)
    def test_round_trip_identity(self, stream):
        assert parse_vgm(write_vgm(stream)) == stream

    @given(streams())
    @settings(max_examples=60)
    def test_wait_conservation(self, stream):
        assert parse_vgm(write_vgm(stream)).total_samples == stream.total_samples


def outcome(decode, data: bytes):
    """The timed writes, or the type and message of a VgmError."""
    try:
        return decode(data)
    except vgm.VgmError as exc:
        return type(exc), str(exc)


def decode_reference(data: bytes):
    return reference_vgm.flatten_to_writes(reference_vgm.parse_commands(data))


@st.composite
def vgm_images(draw):
    """write_vgm images, some with a data block spliced in before the first command."""
    image = write_vgm(draw(streams()))
    if draw(st.booleans()):
        payload = draw(st.binary(max_size=8))
        block = bytes((0x67, 0x66, draw(st.integers(0, 255)))) + struct.pack("<I", len(payload))
        image = image[:HEADER_SIZE] + block + payload + image[HEADER_SIZE:]
    return image


VGM_EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.one_of(st.integers(HEADER_SIZE, HEADER_SIZE + 400), st.integers(0, HEADER_SIZE - 1)),
    st.one_of(st.sampled_from(b"\x00\x01\x17\x18\x61\x62\x63\x66\x67\x70\x7f\x80\xb4\xff"),
              st.integers(0, 255)))


class TestDecoderAgainstReference:
    """The one-pass decoder against the two-pass one in reference_vgm."""

    @given(vgm_images())
    @settings(max_examples=100)
    def test_round_trip(self, image):
        assert parse_vgm(image) == decode_reference(image)

    @pytest.mark.parametrize("body", [
        bytes((0xB4, 0x15)),                                  # truncated APU write
        bytes((0x62, 0x61, 0x10)),                            # truncated wait
        bytes((0x62, 0x67, 0x66, 0x00)),                      # truncated block header
        bytes((0x67, 0x66, 0x00, 0x09, 0, 0, 0, 1, 2, 0x66)),  # block beyond the end
        bytes((0x67, 0x66, 0x00, 0xFF, 0xFF, 0xFF, 0xFF)),    # oversize block
        bytes((0x70, 0x67, 0x00, 0x00, 0, 0, 0, 0, 0x66)),    # malformed block
        bytes((0x62, 0xB4, 0x80, 0x00, 0x66)),                # second chip
        bytes((0x62, 0xB4, 0x18, 0x00, 0x66)),                # register above 0x17
        bytes((0x62, 0x62, 0x51, 0x00, 0x00, 0x66)),          # unknown opcode
        bytes((0x62, 0xB4, 0x00, 0x3F)),                      # no end-of-data
    ])
    def test_same_error_at_same_offset(self, body):
        for data in (make_vgm(body), gzip.compress(make_vgm(body), mtime=0)):
            got = outcome(parse_vgm, data)
            assert got == outcome(decode_reference, data)
            assert issubclass(got[0], vgm.VgmError)

    @pytest.mark.parametrize("body, writes, total", [
        (bytes((0xB4, 0x15, 0x66, 0x66)), [(0, 0x4015, 0x66)], 0),      # 0x66 as a value
        (bytes((0xB4, 0x15, 0x66)), None, None),                        # ... and no end
        (bytes((0x61, 0x66, 0x00, 0x66)), [], 0x66),                    # 0x66 as a wait byte
        (bytes((0x61, 0x66, 0x00)), None, None),                        # ... and no end
        (bytes((0x67, 0x66, 0x00, 0x03, 0, 0, 0, 0x51, 0xB4, 0x66, 0xB4, 0x00, 0x01, 0x66)),
         [(0, 0x4000, 0x01)], 0),                                       # 51 B4 66 in a payload
        (bytes((0x62, 0x67, 0x66, 0x00, 0x02, 0, 0, 0, 0xAA, 0xBB)), None, None),  # block at EOF
        (b"", None, None),                                              # empty command stream
    ], ids=["value 0x66", "value 0x66, no end", "wait byte 0x66", "wait byte 0x66, no end",
            "payload 51 b4 66", "block ends at EOF", "empty"])
    def test_command_bytes_inside_operands(self, body, writes, total):
        for data in (make_vgm(body), gzip.compress(make_vgm(body), mtime=0)):
            got = outcome(parse_vgm, data)
            assert got == outcome(decode_reference, data)
            if writes is None:
                assert got == (TruncatedFile, "command stream missing end-of-data (0x66)")
            else:
                assert got == TimedWriteStream([TimedWrite(*w) for w in writes], total)

    @pytest.mark.parametrize("data_offset", [0xC0 + 1, 0xC0 + 2, 0x1000, 0x34 + 0xFFFFFFFF])
    def test_data_offset_past_the_end(self, data_offset):
        image = bytearray(make_vgm(b""))
        struct.pack_into("<I", image, 0x34, data_offset - 0x34)
        got = outcome(parse_vgm, bytes(image))
        assert got == outcome(decode_reference, bytes(image))
        assert got == (TruncatedFile, "command stream missing end-of-data (0x66)")

    @given(vgm_images(), st.lists(VGM_EDIT, min_size=1, max_size=4),
           st.sampled_from(["vgm", "vgz of mutated vgm", "mutated vgz"]))
    @settings(derandomize=True, max_examples=400)
    def test_byte_mutations(self, image, edits, form):
        if form == "vgm":
            data = mutate(image, edits)
        elif form == "vgz of mutated vgm":
            data = gzip.compress(mutate(image, edits), mtime=0)
        else:
            data = mutate(gzip.compress(image, mtime=0), edits)
        # outcome lets any error other than a VgmError escape and fail the test
        assert outcome(parse_vgm, data) == outcome(decode_reference, data)


class TestStreamColumns:
    WRITES = [TimedWrite(0, 0x4015, 0x0F), TimedWrite(0, 0x4000, 0xBF), TimedWrite(735, 0x4002, 0)]

    def test_list_and_columns_build_the_same_stream(self):
        offsets, registers, values = zip(*self.WRITES)
        from_list = TimedWriteStream(self.WRITES, total_samples=800)
        from_columns = TimedWriteStream.from_columns(
            np.array(offsets), np.array(registers, np.int32), np.array(values, np.uint8), 800)
        assert from_list == from_columns
        assert from_list != TimedWriteStream(self.WRITES, total_samples=801)
        assert from_list != TimedWriteStream(self.WRITES[:2], total_samples=800)
        for stream in (from_list, from_columns):
            assert [c.dtype for c in (stream.offsets, stream.registers, stream.values)] == \
                [np.int64] * 3

    @pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 0)])
    def test_columns_of_different_lengths_rejected(self, lengths):
        offsets, registers, values = (np.zeros(n, np.int64) for n in lengths)
        with pytest.raises(ValueError, match="^the offset, register and value columns differ"):
            TimedWriteStream.from_columns(offsets, registers, values, 10)

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3), (2, 3)), ((2,), (2, 1), (2,))])
    def test_columns_not_1d_rejected(self, shapes):
        offsets, registers, values = (np.full(shape, 0x4015) for shape in shapes)
        message = f"the columns are not all 1-D: shapes {list(shapes)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TimedWriteStream.from_columns(offsets, registers, values, 10)

    def test_writes_gives_back_the_tuples(self):
        stream = TimedWriteStream(self.WRITES, total_samples=800)
        assert stream.writes == self.WRITES
        assert all(type(w) is TimedWrite and type(w.value) is int for w in stream.writes)
        assert stream.writes is not stream.writes   # built when read
        assert TimedWriteStream().writes == []

    def test_repr_is_bounded(self):
        small = TimedWriteStream(self.WRITES, total_samples=800)
        assert eval(repr(small), {**vars(np), "TimedWriteStream": TimedWriteStream}) == small
        n = 2 ** 20
        large = TimedWriteStream.from_columns(np.arange(n), np.full(n, 0x4015), np.zeros(n, int), n)
        assert len(repr(large)) < 1000 and "total_samples=1048576" in repr(large)

    def test_columns_are_read_only_copies(self):
        offsets = np.array([0, 10])
        stream = TimedWriteStream.from_columns(offsets, [0x4015, 0x4015], [1, 0], 10)
        offsets[1] = 5
        assert stream.offsets.tolist() == [0, 10]
        for column in (stream.offsets, stream.registers, stream.values):
            with pytest.raises(ValueError):
                column[0] = 1
        assert parse_vgm(write_vgm(stream)).offsets.flags.writeable is False

    def test_items_that_are_not_ints_are_kept_as_given(self):
        stream = TimedWriteStream([TimedWrite(0, 0x4015, 1), TimedWrite(1, 0x4000, 1.5)], 10)
        assert stream.values.tolist() == [1, 1.5]
        assert [type(v) for v in stream.values.tolist()] == [int, float]
        huge = TimedWriteStream([TimedWrite(0, 0x4015, 2 ** 64 + 3)], 10)
        assert huge.writes == [TimedWrite(0, 0x4015, 2 ** 64 + 3)]
        # ints that numpy cannot type together are still ints
        mixed = TimedWriteStream([TimedWrite(0, 0x4015, np.uint64(5)),
                                  TimedWrite(1, 0x4015, 3)], 5)
        assert mixed.values.dtype == np.int64 and mixed.values.tolist() == [5, 3]
        check_stream(mixed)


# Items that break one rule of check_stream each.
BAD_VALUES = (1.5, 2 ** 64 + 3, -1, 256, 2.0, "1")
BAD_OFFSETS = (-1, 1.5, 2 ** 70, -(2 ** 70))
BAD_REGISTERS = (0x3FFF, 0x4018, -1, 0x4000 + 0.5, 2 ** 64)
BAD_TOTALS = (-1, MAX_TOTAL_SAMPLES + 1, 2 ** 70, 1.5, 100.0, "100", None)


@st.composite
def faulty_streams(draw):
    """streams() with some writes given a decreasing offset, an offset past the
    end, or a bad register or value, and now and then a bad total."""
    stream = draw(streams())
    writes = [list(w) for w in stream.writes]
    total = stream.total_samples
    for _ in range(draw(st.integers(0, 3)) if writes else 0):
        w = writes[draw(st.integers(0, len(writes) - 1))]
        fault = draw(st.sampled_from(["decrease", "past the end", "offset", "register", "value"]))
        if fault == "decrease":
            w[0] -= draw(st.integers(1, 1000))
        elif fault == "past the end":
            w[0] = total + draw(st.integers(1, 1000))
        elif fault == "offset":
            w[0] = draw(st.sampled_from(BAD_OFFSETS))
        elif fault == "register":
            w[1] = draw(st.sampled_from(BAD_REGISTERS))
        else:
            w[2] = draw(st.sampled_from(BAD_VALUES))
    if draw(st.integers(0, 7)) == 0:
        total = draw(st.sampled_from(BAD_TOTALS))
    return TimedWriteStream([TimedWrite(*w) for w in writes], total_samples=total)


def check_outcome(check, stream):
    """None, or the type, message and named write of the error ``check`` raises."""
    try:
        check(stream)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return None


class TestCheckAgainstReference:
    """check_stream's array reductions against the one-write-at-a-time loop."""

    @given(faulty_streams())
    @settings(max_examples=150)
    @example(TimedWriteStream([TimedWrite(0, 0x4015, 1), TimedWrite(-5, 0x4018, 256)], 10))
    @example(TimedWriteStream([TimedWrite(5, 0x4018, 1.5), TimedWrite(4, 0x4015, 0)], 10))
    @example(TimedWriteStream([TimedWrite(11, 0x4015, 0)], -1))
    @example(TimedWriteStream([TimedWrite(1.5, 0x4000, 2 ** 64 + 3)], 10))
    @example(TimedWriteStream([TimedWrite(0, 0x4015, 1), TimedWrite(0.5, 0x4015, 1),
                               TimedWrite(2, 0x4015, 256)], 10))
    def test_same_error_for_the_same_write(self, stream):
        assert check_outcome(check_stream, stream) == check_outcome(reference_vgm.check_stream,
                                                                    stream)

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_bad_value_names_write_and_value(self, value):
        stream = TimedWriteStream([TimedWrite(0, 0x4015, 1), TimedWrite(3, 0x4000, value)], 10)
        with pytest.raises(BadWriteValue) as exc:
            check_stream(stream)
        assert (exc.value.index, exc.value.value) == (1, value)
        assert str(exc.value) == f"write 1 value {value!r} is not an int in [0, 255]"

    def test_offset_and_register_that_are_not_ints(self):
        with pytest.raises(BadWriteOffset) as exc:
            check_stream(TimedWriteStream([TimedWrite(1.5, 0x4015, 0)], 10))
        assert str(exc.value) == "write 0 at sample 1.5 is not an int"
        with pytest.raises(RegisterOutOfRange) as exc:
            check_stream(TimedWriteStream([TimedWrite(1, 0x4000 + 0.5, 0)], 10))
        assert str(exc.value) == "register 16384.5 is not an int"
