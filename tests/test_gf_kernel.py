"""The GF(2^8) byte-buffer kernel against the scalar field.

Every public function of :mod:`repro.gf.gf256` that touches a payload goes
through one private kernel (pair tables over ``"<u2"`` views, a byte-table
tail).  These tests drive all six against a reference that shares nothing
with it: per-coefficient 256-entry translation tables built from
:func:`gf_mul`, applied with ``bytes.translate`` and integer XOR -- over
every coefficient, the lengths around the kernel's segment boundary, and
every buffer kind the codes, the repair chain and the service hand in.
"""

import random

import numpy as np
import pytest

from repro.codes import LRCCode, RSCode
from repro.ecpipe.pipeline import combine_partials
from repro.gf import gf_mul
from repro.gf.gf256 import (
    gf_accumulate_into,
    gf_mul_bytes,
    gf_mul_into,
    gf_mulsum_bytes,
    gf_mulsum_into,
    gf_mulsum_stacked,
)

#: 0..3 exercise the empty, byte-only and pair+tail shapes; the rest straddle
#: the kernel's 32 Ki-pair (64 KiB) segment.
LENGTHS = (0, 1, 2, 3, 65535, 65536, 65537)

#: ``SCALE[c]`` maps a byte to ``c * byte`` -- the scalar field, tabulated.
SCALE = [bytes(gf_mul(c, v) for v in range(256)) for c in range(256)]

_rnd = random.Random(20170712)
RAW = [_rnd.randbytes(max(LENGTHS)) for _ in range(3)]


def ref_xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def ref_mulsum(coeffs, payloads, start: bytes = None) -> bytes:
    acc = bytes(len(payloads[0])) if start is None else start
    for coeff, payload in zip(coeffs, payloads):
        acc = ref_xor(acc, payload.translate(SCALE[coeff]))
    return acc


def _strided(raw: bytes) -> np.ndarray:
    """A non-contiguous row: every other byte of an interleaved buffer."""
    wide = np.zeros(2 * len(raw), dtype=np.uint8)
    wide[::2] = np.frombuffer(raw, dtype=np.uint8)
    wide[1::2] = 0xA5
    return wide[::2]


def _read_only(raw: bytes) -> np.ndarray:
    arr = np.frombuffer(raw, dtype=np.uint8).copy()
    arr.flags.writeable = False
    return arr


SOURCES = {
    "bytes": lambda raw: raw,
    "bytearray": bytearray,
    "odd_memoryview": lambda raw: memoryview(b"\x5a" + raw)[1:],
    "strided_row": _strided,
    "read_only_array": _read_only,
}

DESTINATIONS = {
    "bytearray": bytearray,
    "odd_memoryview": lambda n: memoryview(bytearray(n + 1))[1:],
}


@pytest.mark.parametrize("dst_kind", DESTINATIONS)
@pytest.mark.parametrize("src_kind", SOURCES)
def test_every_kernel_matches_the_scalar_field(src_kind, dst_kind):
    make_src, make_dst = SOURCES[src_kind], DESTINATIONS[dst_kind]
    for length in LENGTHS:
        raws = [raw[:length] for raw in RAW]
        srcs = [make_src(raw) for raw in raws]
        stacked = np.stack([np.frombuffer(raw, dtype=np.uint8) for raw in raws])
        # Big payloads take every eighth coefficient per kernel, rotated so
        # the six kernels together still cover all 256; small ones take all.
        step = 8 if length > 3 else 1
        for c in range(0, 256, step):
            c1, c2, c3 = (c + 1) % 256, (c + 2) % 256, (c + 3) % 256
            scaled = raws[0].translate(SCALE[c])

            assert gf_mul_bytes(c, srcs[0]).tobytes() == scaled

            out = make_dst(length)
            gf_mul_into(c1, srcs[0], out)
            assert bytes(out) == raws[0].translate(SCALE[c1])

            out = make_dst(length)
            out[:] = raws[1]
            gf_accumulate_into(out, c2, srcs[0])
            assert bytes(out) == ref_mulsum([c2], raws[:1], start=raws[1])

            coeffs = [c3, (c + 4) % 256, (c + 5) % 256]
            expected = ref_mulsum(coeffs, raws)
            assert gf_mulsum_bytes(coeffs, srcs).tobytes() == expected

            out = make_dst(length)
            gf_mulsum_into(coeffs, srcs, out)
            assert bytes(out) == expected

            coeffs = [(c + 6) % 256, (c + 7) % 256, c]
            out = make_dst(length)
            gf_mulsum_stacked(coeffs, stacked, out)
            assert bytes(out) == ref_mulsum(coeffs, raws)


def test_all_256_coefficients_at_the_segment_boundary():
    # The sweep above thins coefficients on big payloads; this one does not.
    raw = RAW[0][:65537]
    out = bytearray(len(raw))
    for c in range(256):
        gf_mul_into(c, raw, out)
        assert bytes(out) == raw.translate(SCALE[c]), c
        gf_accumulate_into(out, c, raw)
        assert not any(out), c


@pytest.mark.parametrize("nbytes", [1, 3, 4097, 65537])
def test_packed_partials_with_odd_sections(nbytes):
    # f = 2 sections of odd length: section 1 starts at an odd address.
    locals_ = [raw[:nbytes] for raw in RAW]
    hops = [(7, 200), (1, 0), (91, 1)]
    packed = None
    expected = [bytes(nbytes), bytes(nbytes)]
    for (a, b), local in zip(hops, locals_):
        packed = combine_partials(packed, (a, b), local)
        expected = [
            ref_mulsum([a], [local], start=expected[0]),
            ref_mulsum([b], [local], start=expected[1]),
        ]
        assert bytes(packed) == expected[0] + expected[1]


def test_stacked_column_slices_at_odd_offsets():
    data = np.frombuffer(b"".join(raw[:9001] for raw in RAW), dtype=np.uint8).reshape(3, 9001)
    for start, stop in ((1, 9000), (3, 4), (4095, 8192)):
        out = np.empty(stop - start, dtype=np.uint8)
        gf_mulsum_stacked([29, 1, 142], data[:, start:stop], out)
        assert out.tobytes() == ref_mulsum([29, 1, 142], [raw[start:stop] for raw in RAW])


@pytest.mark.parametrize(
    "out",
    [
        b"\x00" * 8,
        memoryview(b"\x00" * 8),
        _read_only(b"\x00" * 8),
    ],
    ids=["bytes", "memoryview_of_bytes", "read_only_array"],
)
def test_read_only_out_is_rejected(out):
    src = RAW[0][:8]
    with pytest.raises(ValueError):
        gf_mul_into(3, src, out)
    with pytest.raises(ValueError):
        gf_accumulate_into(out, 3, src)
    with pytest.raises(ValueError):
        gf_mulsum_into([3], [src], out)
    with pytest.raises(ValueError):
        gf_mulsum_stacked([3], np.frombuffer(src, dtype=np.uint8)[None, :], out)
    assert bytes(out) == b"\x00" * 8


# ------------------------------------------------------------------- aliasing
class TestAliasing:
    LENGTH = 200_001  # several segments and an odd tail

    def test_scaling_a_buffer_in_place(self):
        raw = (RAW[0] * 4)[: self.LENGTH]
        buf = bytearray(raw)
        gf_mul_into(113, buf, buf)
        assert bytes(buf) == raw.translate(SCALE[113])
        arr = np.frombuffer(bytearray(raw), dtype=np.uint8)
        gf_mul_into(113, arr, arr)
        assert arr.tobytes() == raw.translate(SCALE[113])

    def test_accumulating_a_buffer_into_itself(self):
        raw = (RAW[1] * 4)[: self.LENGTH]
        buf = bytearray(raw)
        gf_accumulate_into(buf, 113, buf)
        assert bytes(buf) == ref_xor(raw, raw.translate(SCALE[113]))

    @pytest.mark.parametrize("shift", [1, 2, 65536])
    def test_shifted_overlap_is_rejected_untouched(self, shift):
        raw = (RAW[2] * 5)[: self.LENGTH + shift]
        for forward in (True, False):
            buf = bytearray(raw)
            view = memoryview(buf)
            low, high = view[: self.LENGTH], view[shift:]
            src, dst = (low, high) if forward else (high, low)
            with pytest.raises(ValueError, match="overlap"):
                gf_mul_into(113, src, dst)
            with pytest.raises(ValueError, match="overlap"):
                gf_accumulate_into(dst, 113, src)
            assert bytes(buf) == raw

    def test_a_sum_may_not_write_over_one_of_its_sources(self):
        a, b = bytearray(RAW[0][:1000]), RAW[1][:1000]
        with pytest.raises(ValueError, match="overlap"):
            gf_mulsum_into([5, 9], [a, b], a)
        assert bytes(a) == RAW[0][:1000]


# --------------------------------------------------------- segment-wise encode
@pytest.mark.parametrize(
    "code",
    [RSCode(5, 3), RSCode(9, 6), LRCCode(4, 2, 2)],
    ids=["rs53", "rs96", "lrc422"],
)
def test_encode_into_odd_column_segments_equals_whole_encode(code):
    block = 20_011
    payload = (RAW[0] + RAW[1] + RAW[2])[: code.k * block]
    data = np.frombuffer(payload, dtype=np.uint8).reshape(code.k, block)
    whole = code.encode([data[i].tobytes() for i in range(code.k)])
    outs = [np.empty(block, dtype=np.uint8) for _ in range(code.n)]
    parity_only = [np.empty(block, dtype=np.uint8) for _ in range(code.n - code.k)]
    segment = 6_667  # odd: every other segment starts at an odd address
    for off in range(0, block, segment):
        stop = min(off + segment, block)
        code.encode_into(data[:, off:stop], [out[off:stop] for out in outs])
        # The gateway's form: systematic blocks are not asked for.
        code.encode_into(
            data[:, off:stop], [None] * code.k + [out[off:stop] for out in parity_only]
        )
    for i in range(code.n):
        assert outs[i].tobytes() == whole[i].tobytes(), i
    for i, out in enumerate(parity_only, start=code.k):
        assert out.tobytes() == whole[i].tobytes(), i
