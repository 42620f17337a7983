"""Shortest round-trip formatting of float64 tables, a block at a time.

write_csv_body(handle, table) writes a finite float64 table to a binary
handle as CSV: every field is exactly repr(float(v)), with ',' between
columns and '\\n' after each row.  It works on whole arrays, at most
CHUNK_ROWS rows at a time, and makes no call of repr.

Digits.  Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) picks the shortest decimal in a double's rounding
interval and, among those, the closest, ties to even: the rule of
Python's repr.  It needs only the high halves of 64 x 64-bit products,
built here from 32-bit limbs on uint64 arrays.  The code follows Java's
DoubleToDecimal with two changes, both for the digits Python gives the
smallest subnormals: there is no two-digit case for them (Java's
C_TINY), and the one-digit-shorter candidate is tried from s >= 10, not
from s >= 100.  Without them 5e-324 would come out as 4.9e-324 and
8e-323 as 7.9e-323.

Layout.  CPython's format_float_short for 'r': exponent form when the
decimal point position decpt is <= -4 or > 16, the exponent signed and
at least two digits long, and '.0' after integral values.  Every field
is gathered into a fixed-width byte slot whose unused bytes are NUL,
and bytes.translate drops the NULs.

The tables (g(k) for k in [-324, 292], the digit groups and the slot
layouts) are built on first use, never at import.  Nothing here starts
a thread or calls BLAS, so forked writers may call it.
"""

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["write_csv_body", "CHUNK_ROWS"]

# Rows formatted and written per block.  256 rows of 9 columns keep the
# temporaries under 1 MB, and format as fast as larger blocks.
CHUNK_ROWS = 256

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)  # the hidden bit of a normal double
_Q_MIN = -1074  # exponent of the smallest subnormal
_K_MIN, _K_MAX = -324, 292  # the range of k = floor(log10(2^q)) over all doubles
# flog10pow2(q) = q * _LOG10_2 >> 41 and
# flog10threeQuartersPow2(q) = (q * _LOG10_2 + _LOG10_3_4) >> 41, exact
# over every exponent a double has (tests/test_shortest.py checks them)
_LOG10_2 = 661_971_961_083
_LOG10_3_4 = -274_743_187_321
# decimal point positions: 5e-324 has -323, 1.7976931348623157e+308 has 309
_DECPT_MIN, _DECPT_MAX = -323, 309

# The columns of a value's source row, from which its slot is gathered:
# 0..19 the digits of d, zero-padded on the left; 21..23 the three
# digits of the exponent; then constant bytes, the signs and the
# separator.  30 and 31 pad the row to 32 bytes.
_DOT, _E, _NUL, _ESIGN, _SIGN, _SEP = range(24, 30)
_SOURCE_WIDTH = 32
# the widest field, -1.2345678901234567e-308, and its separator
_SLOT = 25
# values per gather of the slots
_GATHER = 512


class _Tables(NamedTuple):
    k_index: np.ndarray  # k - _K_MIN, by exponent row
    h: np.ndarray  # the shift of the significand, by exponent row
    limbs: tuple  # 32-bit limbs of g1 and g0, low first, by k - _K_MIN
    groups: np.ndarray  # the ASCII of 0000 to 9999, as uint32
    pow10: np.ndarray  # 10^0 to 10^17
    slots: np.ndarray  # source columns of each slot layout
    layout: np.ndarray  # the layout of each (decpt, number of digits)


@functools.cache
def _tables() -> _Tables:
    """Built on first use.  An exponent row is the biased exponent bq of
    a double, plus 2047 where its significand is 2^52 above the lowest
    binade (the irregular spacing).  g(k) = floor(10^-k 2^-r) + 1, where
    r makes 2^125 <= g < 2^126, and g = g1 2^63 + g0."""
    g, flog2 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            power = 10**-k
            bits = power.bit_length() - 1  # floor(log2(10^-k))
            shift = bits - 125
            g.append((power >> shift if shift >= 0 else power << -shift) + 1)
        else:
            power = 10**k
            bits = -power.bit_length()  # floor(log2(10^-k)), never exact
            g.append((1 << (125 - bits)) // power + 1)
        flog2.append(bits)
    limbs = tuple(
        np.array([part >> shift & 0xFFFFFFFF for part in half], _U64)
        for half in ([v >> 63 for v in g], [v & ((1 << 63) - 1) for v in g])
        for shift in (0, 32)
    )
    bq = np.arange(2047)
    q = np.tile(np.where(bq == 0, _Q_MIN, bq - 1075), 2)
    irregular = np.arange(2 * 2047) >= 2047
    k_index = ((q * _LOG10_2 + np.where(irregular, _LOG10_3_4, 0)) >> 41) - _K_MIN
    h = q + np.array(flog2)[k_index] + 2
    codes = np.arange(10_000)
    groups = np.empty((10_000, 4), np.uint8)
    for place in range(4):
        groups[:, 3 - place] = ord("0") + codes // 10**place % 10
    tables = _Tables(
        k_index.astype(np.int16),
        h.astype(np.uint8),
        limbs,
        groups.view(np.uint32).ravel(),
        np.array([10**i for i in range(18)], _U64),
        *_layouts(),
    )
    # every caller in the process shares them
    for array in (*tables[:2], *tables.limbs, *tables[3:]):
        array.setflags(write=False)
    return tables


def _layouts():
    """(slots, layout): the source columns of every slot layout, one row
    each, NUL-padded; and the row for each decimal point position decpt
    and number of significant digits nd, at (decpt - _DECPT_MIN) * 17 +
    nd - 1.  Plain notation for decpt in [-3, 16]; exponent notation,
    whose layout depends on nd and the exponent's digit count, outside."""
    rows = []

    def digit(j, nd):  # significant digit j of nd, '0' past the last
        return 20 - nd + j if j < nd else 0

    for decpt in range(-3, 17):
        for nd in range(1, 18):
            if decpt <= 0:
                body = [0, _DOT] + [0] * -decpt + [digit(j, nd) for j in range(nd)]
            else:
                width = max(nd, decpt + 1)
                body = [digit(j, nd) for j in range(decpt)] + [_DOT]
                body += [digit(j, nd) for j in range(decpt, width)]
            rows.append(body)
    for nd in range(1, 18):
        for exp_digits in (2, 3):
            body = [digit(0, nd)]
            if nd > 1:
                body += [_DOT] + [digit(j, nd) for j in range(1, nd)]
            body += [_E, _ESIGN] + list(range(24 - exp_digits, 24))
            rows.append(body)
    slots = np.array(
        [[_SIGN] + body + [_SEP] + [_NUL] * (_SLOT - 2 - len(body)) for body in rows], np.intp
    )
    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1)[:, None]
    nd = np.arange(1, 18)[None, :]
    layout = np.where(
        (decpt > -4) & (decpt <= 16),
        (decpt + 3) * 17 + nd - 1,
        340 + 2 * (nd - 1) + (np.abs(decpt - 1) >= 100),
    )
    return slots, layout.astype(np.int16).ravel()


def _round_to_odd(g1_lo, g1_hi, g0_lo, g0_hi, cp):
    """rop(cp g 2^-127) for g = g1 2^63 + g0 given as 32-bit limbs: the
    integer part, with its lowest bit set when a fraction was dropped
    (Java's DoubleToDecimal.rop, with each 64 x 64-bit product built from
    32-bit limbs)."""
    c_lo, c_hi = cp & _M32, cp >> 32
    # x1: the high half of g0 cp
    ll, lh, hl = g0_lo * c_lo, g0_lo * c_hi, g0_hi * c_lo
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    x1 = g0_hi * c_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    # y1 2^64 + y0 = g1 cp
    ll, lh, hl = g1_lo * c_lo, g1_lo * c_hi, g1_hi * c_lo
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    y1 = g1_hi * c_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    y0 = (mid << 32) | (ll & _M32)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _M63) != 0)


def _digits(bits, tables):
    """(d, k) with d 10^k the shortest, then closest, decimal in the
    rounding interval of each nonzero finite double |v| given by its
    bits (sign cleared): Schubfach."""
    t = bits & _T_MASK
    bq = bits >> 52
    c = t | (bq != 0) * _C_MIN
    # c = 2^52 above the lowest binade: the lower neighbour is closer
    irregular = (t == 0) & (bq > 1)
    row = bq + irregular * _U64(2047)
    k_index = tables.k_index[row]
    g = [limb[k_index] for limb in tables.limbs]
    h = tables.h[row]
    cb = c << 2
    # 4 v / 10^k and the bounds of v's rounding interval, rounded to odd
    vb = _round_to_odd(*g, cb << h)
    vbl = _round_to_odd(*g, (cb - _U64(2) + irregular) << h)
    vbr = _round_to_odd(*g, (cb + _U64(2)) << h)
    # the bounds of the rounding interval count when c is even
    odd = c & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2
    # one digit shorter: 10 floor(s / 10) or the next multiple of ten
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = sp10 + 10 << 2 <= vbr
    # as long as s: s or w = s + 1, the closer when both lie in the interval
    uin = vbl <= s << 2
    win = s + 1 << 2 <= vbr
    middle = (s << 2) + 2
    closer_w = (vb > middle) | ((vb == middle) & (s & 1 == 1))
    d = s + (win & (~uin | closer_w))
    np.copyto(d, sp10 + wpin * _U64(10), where=(s >= 10) & (upin != wpin))
    return d, k_index + np.int64(_K_MIN)


def _source(bits, separators, tables):
    """(source rows, layout rows) of a block of finite doubles given by
    their bits: each value's digits, exponent digits, signs and separator
    byte, and the row of tables.slots that places them."""
    magnitude = bits & _M63
    zero = magnitude == 0
    d, k = _digits(magnitude | zero, tables)
    # strip the trailing zeros, up to 16, of the few that have any
    ends_in_zero = np.flatnonzero(d // 10 * 10 == d)
    if ends_in_zero.size:
        tail, shift = d[ends_in_zero], k[ends_in_zero]
        for place in (16, 8, 4, 2, 1):
            quotient = tail // tables.pow10[place]
            divisible = quotient * tables.pow10[place] == tail
            np.copyto(tail, quotient, where=divisible)
            shift += divisible * place
        d[ends_in_zero], k[ends_in_zero] = tail, shift
    d[zero] = 0
    nd = np.maximum(np.searchsorted(tables.pow10, d, side="right"), 1)
    decpt = nd + k
    decpt[zero] = 1
    layout = tables.layout[(decpt - _DECPT_MIN) * 17 + nd - 1]

    source = np.empty((bits.size, _SOURCE_WIDTH), np.uint8)
    words = source.view(np.uint32)
    for word, place in enumerate((16, 12, 8, 4)):
        high = d // tables.pow10[place]
        words[:, word] = tables.groups[high]
        d -= high * tables.pow10[place]
    words[:, 4] = tables.groups[d]
    words[:, 5] = tables.groups[np.abs(decpt - 1)]
    source[:, _DOT] = ord(".")
    source[:, _E] = ord("e")
    source[:, _NUL] = 0
    source[:, _ESIGN] = np.where(decpt < 1, ord("-"), ord("+"))
    source[:, _SIGN] = (bits >> 63) * ord("-")
    source[:, _SEP] = separators
    return source, layout


def _format(bits, separators, tables):
    """The fields of a block of finite doubles, given by their bits, each
    followed by its separator byte, as bytes with the NULs still in."""
    source, layout = _source(bits, separators, tables)
    slots = np.empty((bits.size, _SLOT), np.uint8)
    flat = source.ravel()
    # a few hundred values a gather keep its index array small
    for start in range(0, bits.size, _GATHER):
        stop = start + _GATHER
        index = tables.slots[layout[start:stop]]
        index += np.arange(start, start + len(index))[:, None] * _SOURCE_WIDTH
        flat.take(index, out=slots[start:stop])
    return slots.tobytes()


def write_csv_body(handle, table) -> None:
    """Write the rows of a finite 2-D float64 table to a binary handle as
    CSV lines: each field is repr(float(v)), fields are joined by ',' and
    every row ends with '\\n'.  Raises ValueError on NaN or infinity,
    before anything is written."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    if not np.isfinite(table).all():
        raise ValueError("cannot write NaN or infinity")
    tables = _tables()
    rows, columns = table.shape
    row_separators = np.full(columns, ord(","), np.uint8)
    row_separators[-1:] = ord("\n")
    bits = table.view(_U64)
    for start in range(0, rows, CHUNK_ROWS):
        block = bits[start : start + CHUNK_ROWS]
        separators = np.tile(row_separators, block.shape[0])
        handle.write(_format(block.ravel(), separators, tables).translate(None, b"\0"))
