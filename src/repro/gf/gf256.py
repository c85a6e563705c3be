"""Arithmetic over GF(2^8).

The field is generated by the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11d), the same polynomial used by most storage erasure-coding libraries
(Jerasure, ISA-L, liberasurecode).  Elements are integers in ``[0, 255]``.

Two layers of API are provided:

* scalar helpers (:func:`gf_mul`, :func:`gf_div`, ...) used by the matrix code
  and by tests, and
* byte-buffer functions (:func:`gf_mul_bytes`, :func:`gf_mul_into`,
  :func:`gf_accumulate_into`, :func:`gf_mulsum_bytes`,
  :func:`gf_mulsum_into`, :func:`gf_mulsum_stacked`) used by the erasure
  codes and the repair chain on real payloads.  All six are thin argument
  checks over one private kernel, :func:`_combine`: a per-coefficient
  65,536-entry table multiplies two bytes per lookup, applied in
  cache-sized segments with ``np.take(..., out=, mode="wrap")`` and an
  in-place XOR, so no payload-sized temporary is ever allocated.

A small object-oriented wrapper, :class:`GF256`, groups the scalar operations
for callers that prefer an explicit field object.
"""

from __future__ import annotations

import numpy as np

#: Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D

#: Order of the multiplicative group of GF(2^8).
GROUP_ORDER = 255

#: Number of field elements.
FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build the exponentiation and logarithm tables for GF(2^8).

    Returns
    -------
    tuple of numpy.ndarray
        ``(exp_table, log_table)`` where ``exp_table`` has 512 entries (the
        second half mirrors the first so that ``exp[a + b]`` never needs a
        modulo) and ``log_table`` has 256 entries with ``log[0]`` unused.
    """
    exp = np.zeros(2 * GROUP_ORDER + 2, dtype=np.uint8)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    x = 1
    for i in range(GROUP_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    for i in range(GROUP_ORDER, 2 * GROUP_ORDER + 2):
        exp[i] = exp[i - GROUP_ORDER]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()

def _build_mul_table() -> np.ndarray:
    """Build the full 256x256 multiplication table (~64 KiB).

    Vectorised as one outer-indexed gather -- ``exp[log[a] + log[b]]`` for
    every non-zero ``(a, b)`` at once -- instead of a 65k-iteration Python
    double loop, which dominated module import time.  Row/column 0 stay zero
    (multiplication by zero).
    """
    nonzero_logs = LOG_TABLE[1:]
    table = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
    table[1:, 1:] = EXP_TABLE[nonzero_logs[:, None] + nonzero_logs[None, :]]
    return table


#: Full 256x256 multiplication table; used by the vectorised kernels.
MUL_TABLE = _build_mul_table()


def gf_add(a: int, b: int) -> int:
    """Add two field elements (bitwise XOR)."""
    return (a ^ b) & 0xFF


def gf_sub(a: int, b: int) -> int:
    """Subtract two field elements (identical to addition in GF(2^8))."""
    return (a ^ b) & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]])


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b`` in the field.

    Raises
    ------
    ZeroDivisionError
        If ``b`` is zero.
    """
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] - LOG_TABLE[b] + GROUP_ORDER])


def gf_inv(a: int) -> int:
    """Return the multiplicative inverse of ``a``.

    Raises
    ------
    ZeroDivisionError
        If ``a`` is zero.
    """
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse in GF(2^8)")
    return int(EXP_TABLE[GROUP_ORDER - LOG_TABLE[a]])


def gf_pow(a: int, exponent: int) -> int:
    """Raise ``a`` to the given (possibly negative) integer power."""
    if exponent == 0:
        return 1
    if a == 0:
        if exponent < 0:
            raise ZeroDivisionError("zero cannot be raised to a negative power")
        return 0
    log_a = int(LOG_TABLE[a]) * exponent
    log_a %= GROUP_ORDER
    return int(EXP_TABLE[log_a])


def as_uint8(data: np.ndarray | bytes | bytearray | memoryview) -> np.ndarray:
    """``uint8`` array over ``data``, zero-copy wherever that is sound.

    ``bytes``, ``bytearray`` and ``memoryview`` inputs are wrapped with
    ``np.frombuffer`` (no copy; the view aliases the caller's memory, and is
    writable exactly when the underlying buffer is).  This is what lets the
    streaming service path run the GF kernels directly on slices of network
    buffers instead of materialising intermediate ``bytes`` objects.
    ``uint8`` arrays pass through untouched; arrays of any other dtype are
    *value*-converted (one copy) -- a field element is a value in [0, 255],
    never a reinterpretation of wider-dtype storage bytes.
    """
    if isinstance(data, np.ndarray):
        if data.dtype == np.uint8:
            return data
        return data.astype(np.uint8)
    return np.frombuffer(data, dtype=np.uint8)


def _as_out_uint8(out: np.ndarray | bytearray | memoryview) -> np.ndarray:
    """Writable ``uint8`` view of an output buffer (never a copy).

    The in-place kernels must alias the caller's memory; a silent dtype
    conversion would write into a throwaway copy, so non-``uint8`` arrays
    and read-only buffers are rejected outright.
    """
    if isinstance(out, np.ndarray):
        if out.dtype != np.uint8:
            raise ValueError(f"out must be a uint8 buffer, got dtype {out.dtype}")
        arr = out
    else:
        arr = np.frombuffer(out, dtype=np.uint8)
    if not arr.flags.writeable:
        raise ValueError("out must be a writable buffer")
    return arr


#: Elements per kernel segment: 32 Ki pairs = 64 KiB of payload.  One
#: segment's source, destination, scratch and the 128 KiB pair table stay in
#: L2 together, and on a multi-term sum the destination segment is read and
#: written from cache rather than once per term from memory.
_SEGMENT = 1 << 15

#: Lazily built pair tables, one per coefficient that has met a payload
#: (at most 254 x 128 KiB = 32 MiB; a workload touches a few dozen).
_PAIR_TABLES: dict[int, np.ndarray] = {}


def _pair_table(coeff: int) -> np.ndarray:
    """65,536-entry table multiplying both bytes of a little-endian pair.

    ``T[v] = MUL[coeff][v & 0xFF] | MUL[coeff][v >> 8] << 8``: one lookup
    multiplies two field elements.  Built on first use (~0.1 ms), never at
    import.
    """
    table = _PAIR_TABLES.get(coeff)
    if table is None:
        row = MUL_TABLE[coeff].astype("<u2")
        table = _PAIR_TABLES[coeff] = ((row[:, None] << 8) | row[None, :]).ravel()
    return table


def _same_span(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two equal-length views cover exactly the same bytes."""
    return (
        a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
        and a.strides == b.strides
    )


def _apply(terms, dst: np.ndarray, accumulate: bool) -> None:
    """Run ``(table, src)`` terms over ``dst``, segment by segment.

    ``table`` is ``None`` for coefficient 1 (XOR only).  The first term of a
    non-accumulating call lands in ``dst`` directly; every other term is
    gathered into one small scratch and XORed in.  ``mode="wrap"`` is what
    keeps ``np.take`` from buffering ``out`` (it does under the default
    ``mode="raise"``); every index is in range, so nothing ever wraps.
    """
    total = len(dst)
    scratch = np.empty(min(total, _SEGMENT), dtype=dst.dtype)
    for start in range(0, total, _SEGMENT):
        stop = min(start + _SEGMENT, total)
        out = dst[start:stop]
        fresh = not accumulate
        for table, src in terms:
            part = src[start:stop]
            if fresh:
                if table is None:
                    np.copyto(out, part)
                else:
                    np.take(table, part, out=out, mode="wrap")
                fresh = False
            elif table is None:
                np.bitwise_xor(out, part, out=out)
            else:
                gathered = scratch[: stop - start]
                np.take(table, part, out=gathered, mode="wrap")
                np.bitwise_xor(out, gathered, out=out)


def _combine(coeffs, srcs, dst: np.ndarray, accumulate: bool) -> None:
    """``dst = (dst if accumulate else 0) + sum_i coeffs[i] * srcs[i]``.

    The one table-lookup kernel under every public function below.  ``srcs``
    and ``dst`` are equal-length 1-D ``uint8`` arrays.  Contiguous operands
    are processed two bytes per lookup through ``"<u2"`` views and the pair
    tables (numpy handles views at odd addresses); an odd last byte, or the
    whole payload when any operand is strided, goes through the same loop
    with the byte table ``MUL_TABLE[coeff]``.  Zero coefficients are skipped
    and coefficient 1 is a plain XOR.

    A source may be the destination itself only when it is the single term
    (``out = c * out``); any other overlap is rejected, because the kernel
    writes ``dst`` segment by segment while later source segments are still
    unread.
    """
    terms = [(int(c), s) for c, s in zip(coeffs, srcs) if c]
    if not terms:
        if not accumulate:
            dst[:] = 0
        return
    for _, src in terms:
        if np.may_share_memory(src, dst) and not (len(terms) == 1 and _same_span(src, dst)):
            raise ValueError("source and destination buffers overlap")
    paired = 0
    if dst.flags.c_contiguous and all(s.flags.c_contiguous for _, s in terms):
        paired = len(dst) & ~1
    if paired:
        _apply(
            [
                (None if c == 1 else _pair_table(c), s[:paired].view("<u2"))
                for c, s in terms
            ],
            dst[:paired].view("<u2"),
            accumulate,
        )
    if paired < len(dst):
        _apply(
            [(None if c == 1 else MUL_TABLE[c], s[paired:]) for c, s in terms],
            dst[paired:],
            accumulate,
        )


def gf_mul_bytes(coeff: int, data: np.ndarray | bytes | bytearray | memoryview) -> np.ndarray:
    """Multiply every byte of ``data`` by the scalar ``coeff``.

    Parameters
    ----------
    coeff:
        Field element in ``[0, 255]``.
    data:
        Byte buffer (``bytes``, ``bytearray``, ``memoryview`` or ``uint8``
        array); read zero-copy.

    Returns
    -------
    numpy.ndarray
        New ``uint8`` array of the same length.
    """
    buf = as_uint8(data)
    out = np.empty(buf.shape, dtype=np.uint8)
    _combine([coeff], [buf.reshape(-1)], out.reshape(-1), accumulate=False)
    return out


def gf_mul_into(
    coeff: int,
    data: np.ndarray | bytes | bytearray | memoryview,
    out: np.ndarray | bytearray | memoryview,
) -> None:
    """Write ``coeff * data`` into ``out`` (equal length, no allocation).

    ``out`` must be a writable buffer.  ``data`` may be ``out`` itself
    (scaling in place); a ``data`` that overlaps ``out`` at a different
    offset raises ``ValueError``.
    """
    src = as_uint8(data)
    dst = _as_out_uint8(out)
    if len(src) != len(dst):
        raise ValueError("data and out must have the same length")
    _combine([coeff], [src], dst, accumulate=False)


def gf_accumulate_into(
    out: np.ndarray | bytearray | memoryview,
    coeff: int,
    data: np.ndarray | bytes | bytearray | memoryview,
) -> None:
    """Accumulate ``coeff * data`` into ``out`` in place (``out ^= c*data``).

    This is the streaming form of the helper combine step: a hop receives a
    partial slice, XOR-accumulates its scaled local slice into the same
    buffer, and forwards it -- one buffer per in-flight slice, no copies.
    Overlap follows :func:`gf_mul_into`: the same buffer or disjoint ones.
    """
    dst = _as_out_uint8(out)
    src = as_uint8(data)
    if len(src) != len(dst):
        raise ValueError("data and out must have the same length")
    _combine([coeff], [src], dst, accumulate=True)


def gf_mulsum_bytes(coeffs, buffers) -> np.ndarray:
    """Compute the GF(2^8) linear combination ``sum_i coeffs[i] * buffers[i]``.

    This is the core kernel of erasure-code encoding/decoding and of the
    partial-repair computations performed by helpers (the ``a_i B_i`` terms in
    section 2.1 of the paper).

    Parameters
    ----------
    coeffs:
        Sequence of field elements.
    buffers:
        Sequence of equal-length byte buffers.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array holding the combination.
    """
    buffers = list(buffers)
    out = np.empty(len(buffers[0]) if buffers else 0, dtype=np.uint8)
    gf_mulsum_into(coeffs, buffers, out)
    return out


def gf_mulsum_into(coeffs, buffers, out: np.ndarray | bytearray | memoryview) -> None:
    """Write ``sum_i coeffs[i] * buffers[i]`` into a caller-owned buffer.

    The zero-copy sibling of :func:`gf_mulsum_bytes`: source buffers are read
    through views and the result lands in ``out`` (a writable buffer of the
    common length, disjoint from every source), so an encode over
    ``memoryview`` slices of one contiguous payload performs no intermediate
    materialisation.
    """
    coeffs = list(coeffs)
    arrays = [as_uint8(buf) for buf in buffers]
    if len(coeffs) != len(arrays):
        raise ValueError("coeffs and buffers must have the same length")
    if not arrays:
        raise ValueError("at least one buffer is required")
    dst = _as_out_uint8(out)
    if any(arr.ndim != 1 or len(arr) != len(dst) for arr in arrays):
        raise ValueError("all buffers and out must have the same length")
    _combine(coeffs, arrays, dst, accumulate=False)


def gf_mulsum_stacked(coeffs, stacked, out: np.ndarray | bytearray | memoryview) -> None:
    """``out = sum_i coeffs[i] * stacked[i]`` over a 2-D stacked operand.

    :func:`gf_mulsum_into` for the streaming encode path, where the ``k``
    data blocks arrive as the rows of one ``(k, L)`` ``uint8`` view (e.g. a
    column slice of the reshaped padded object buffer).  The rows are read in
    place -- a column slice's rows are contiguous even though the slice is
    not -- and no ``(k, L)`` intermediate is formed.
    """
    arr = stacked if isinstance(stacked, np.ndarray) else np.asarray(stacked)
    if arr.ndim != 2:
        raise ValueError(f"stacked operand must be 2-D, got {arr.ndim}-D")
    gf_mulsum_into(coeffs, list(arr), out)


class GF256:
    """Object-oriented facade over the module-level GF(2^8) helpers.

    The class is stateless; it exists so that code which is parameterised by
    a field (e.g. the matrix module) can hold an explicit field object.
    """

    order = FIELD_SIZE

    def add(self, a: int, b: int) -> int:
        """Field addition."""
        return gf_add(a, b)

    def sub(self, a: int, b: int) -> int:
        """Field subtraction (same as addition)."""
        return gf_sub(a, b)

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        return gf_mul(a, b)

    def div(self, a: int, b: int) -> int:
        """Field division."""
        return gf_div(a, b)

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        return gf_inv(a)

    def pow(self, a: int, exponent: int) -> int:
        """Exponentiation."""
        return gf_pow(a, exponent)

    def mul_bytes(self, coeff: int, data) -> np.ndarray:
        """Scalar-times-buffer multiplication."""
        return gf_mul_bytes(coeff, data)

    def mulsum_bytes(self, coeffs, buffers) -> np.ndarray:
        """Linear combination of buffers."""
        return gf_mulsum_bytes(coeffs, buffers)
