from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from hjpeg import container, entropy
from hjpeg.container import (
    BadMagicError,
    CompressedFile,
    ContainerError,
    GroupSizeTooLargeError,
    ImageTooLargeError,
    InvariantError,
    PayloadTooLargeError,
    TrailingDataError,
    TruncatedFileError,
    UnsupportedVersionError,
    deserialize,
    serialize,
)
from hjpeg.quantize import DEFAULT_QUANT_TABLE
from oracles import book_of, huge_payload


def random_file(rng) -> CompressedFile:
    g = int(rng.choice([1, 2, 4, 8]))
    n = int(rng.integers(1, 50))
    symbols = rng.integers(-2047, 2048, size=(n, g))
    bw = int(rng.integers(1, 5)) * 8
    bh = int(rng.integers(1, 5)) * 8
    # exactly the coefficients of a bw x bh padded image
    stream = symbols[rng.integers(0, n, size=-(-bw * bh // g))].reshape(-1)[: bw * bh]
    rows, ids, counts, _ = entropy.group_symbols(stream, g)
    book, rank = entropy.build_codebook(rows, counts)
    payload, nbits = entropy.encode(rank[ids], book)
    return CompressedFile(
        dc_diff=bool(rng.integers(0, 2)),
        orig_width=bw - int(rng.integers(0, 7)),
        orig_height=bh - int(rng.integers(0, 7)),
        quant_table=DEFAULT_QUANT_TABLE,
        codebook=book,
        payload=payload,
        payload_bit_length=nbits,
    )


@pytest.fixture
def sample() -> bytes:
    return serialize(random_file(np.random.default_rng(99)))


class TestRoundTrip:
    def test_random_files(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = random_file(rng)
            data = serialize(f)
            g = deserialize(data)
            assert serialize(g) == data

    def test_deterministic(self):
        f = random_file(np.random.default_rng(8))
        assert serialize(f) == serialize(f)

    def test_fixed_header_size(self):
        f = random_file(np.random.default_rng(9))
        data = serialize(f)
        codebook_len = len(entropy.serialize_codebook(f.codebook))
        expected = 20 + 64 + codebook_len + 4 + len(f.payload)
        assert len(data) == expected

    def test_flags_byte(self):
        # an 8x8 image: 16 four-coefficient symbols, coded 1 bit each
        f = replace(random_file(np.random.default_rng(10)), orig_width=8, orig_height=8,
                    codebook=book_of({(0, 0, 0, 0): 1}), dc_diff=True,
                    payload=b"\x00\x00", payload_bit_length=16)
        assert serialize(f)[5] == 0x03


class TestCorruption:
    def test_bad_magic(self, sample):
        with pytest.raises(BadMagicError):
            deserialize(b"XXXX" + sample[4:])

    def test_unsupported_version(self, sample):
        data = bytearray(sample)
        data[4] = 9
        with pytest.raises(UnsupportedVersionError):
            deserialize(bytes(data))

    def test_truncated_header(self, sample):
        with pytest.raises(TruncatedFileError):
            deserialize(sample[:12])

    def test_truncated_payload(self, sample):
        with pytest.raises(TruncatedFileError):
            deserialize(sample[:-1])

    def test_truncated_codebook(self, sample):
        with pytest.raises(TruncatedFileError):
            deserialize(sample[:90])

    def test_flag_group_size_mismatch(self, sample):
        data = bytearray(sample)
        data[5] ^= container.FLAG_REDUCED
        with pytest.raises(InvariantError):
            deserialize(bytes(data))

    def test_serialize_rejects_payload_mismatch(self):
        # refused where the file is made, so no such file reaches serialize
        f = random_file(np.random.default_rng(12))
        with pytest.raises(InvariantError):
            replace(f, payload_bit_length=len(f.payload) * 8 + 9)

    def test_zero_quant_step_is_malformed(self, sample):
        data = bytearray(sample)
        data[20] = 0  # first quantization table entry
        with pytest.raises(ContainerError) as info:
            deserialize(bytes(data))
        assert not isinstance(info.value, InvariantError)

    @pytest.mark.parametrize("bit", [0x04, 0x80])
    def test_reserved_flag_bit_is_malformed(self, sample, bit):
        data = bytearray(sample)
        data[5] |= bit
        with pytest.raises(ContainerError, match="reserved flag bits") as info:
            deserialize(bytes(data))
        assert not isinstance(info.value, InvariantError)

    @pytest.mark.parametrize("table,message", [
        (DEFAULT_QUANT_TABLE[:4, :4], "must be 8x8"),
        (np.where(DEFAULT_QUANT_TABLE == 16, 256, DEFAULT_QUANT_TABLE), r"in \[1, 255\]"),
    ], ids=["4x4", "step-256"])
    def test_serialize_rejects_bad_quant_table(self, table, message):
        f = random_file(np.random.default_rng(18))
        with pytest.raises(ContainerError, match=message) as info:
            replace(f, quant_table=table)
        assert not isinstance(info.value, InvariantError)

    @pytest.mark.parametrize("side,error", [(0, ContainerError), (65535, ImageTooLargeError)])
    def test_bad_original_side_is_malformed(self, sample, side, error):
        # refused as a field bad on its own, by the reader and by making a file alike
        f = random_file(np.random.default_rng(19))
        for pos in (7, 9):  # original width, then height
            data = bytearray(sample)
            data[pos : pos + 2] = side.to_bytes(2, "big")
            for refuse in (lambda: deserialize(bytes(data)),
                           lambda: replace(f, orig_height=side)):
                with pytest.raises(error) as info:
                    refuse()
                assert not isinstance(info.value, InvariantError)

    def test_padding_beyond_ceil8_rejected(self, sample):
        data = bytearray(sample)
        data[11:13] = (65528).to_bytes(2, "big")  # padded width
        with pytest.raises(InvariantError):
            deserialize(bytes(data))

    def test_more_symbols_than_payload_bits_rejected(self, sample):
        bits = deserialize(sample).payload_bit_length
        data = bytearray(sample)
        data[16:20] = (bits + 1).to_bytes(4, "big")  # symbol count
        with pytest.raises(InvariantError):
            deserialize(bytes(data))

    def test_payload_bit_length_beyond_u32_rejected(self):
        # a stub whose length matches 2**32 bits, so only the field width is wrong
        f = random_file(np.random.default_rng(13))
        with pytest.raises(PayloadTooLargeError) as info:
            replace(f, payload=huge_payload(1 << 32), payload_bit_length=1 << 32)
        assert not isinstance(info.value, InvariantError)

    def test_group_size_beyond_u8_rejected(self):
        # the header's group-size field is one byte: a named error, not a struct.error
        f = random_file(np.random.default_rng(17))
        with pytest.raises(GroupSizeTooLargeError) as info:
            replace(f, codebook=book_of({(0,) * 256: 1}))
        assert not isinstance(info.value, InvariantError)

    def test_file_is_frozen(self, sample):
        # a file's checks, made as it is made, hold for its life
        f = deserialize(sample)
        with pytest.raises(FrozenInstanceError):
            f.payload_bit_length += 8
        assert not f.quant_table.flags.writeable

    def test_trailing_bytes_rejected(self, sample):
        with pytest.raises(TrailingDataError) as info:
            deserialize(sample + b"garbage")
        assert not isinstance(info.value, InvariantError)


class TestPaddedSize:
    def test_rounds_up_to_blocks(self):
        assert container.padded_size(1, 8) == (8, 8)
        assert container.padded_size(37, 29) == (40, 32)

    def test_largest_side(self):
        assert container.padded_size(65528, 65528) == (65528, 65528)
        for w, h in ((65529, 1), (1, 65535)):
            with pytest.raises(ImageTooLargeError):
                container.padded_size(w, h)
        assert issubclass(ImageTooLargeError, ContainerError)
