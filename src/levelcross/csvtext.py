"""The text of a float64 table, byte for byte as Python's '%.17g' writes it.

`format_rows(block)` returns the bytes of
`(",".join(["%.17g"] * c) + "\\n") * r % tuple(block.ravel())` for an
(r, c) block, from whole-array integer arithmetic.

A normal double with 10^-11 <= |x| < 10^16 takes the fast path. Write
|x| = M 2^E with M the 53-bit integer significand and q = floor(log10|x|),
found exactly from the binary exponent and one comparison with the least
double not below 10^(q+1). The 17 significant digits are then

    D = round-half-even(M 5^k 2^(E+k)),   k = 16 - q in 1..27,

where 5^k < 2^63, so M 5^k is an exact 128-bit product of 32-bit halves
and the rounding sees the exact remainder: the fixed-precision idea of
Adams' Ryu printf (PLDI 2019). D lies in [10^16, 10^17): rounding up to
10^17 would need a double within half a unit of the 17th digit below a
power of ten, and there is none in the range (the tests check each
one). Every other value (+-0, nan, +-inf, subnormals, |x| outside the
range) is formatted by '%.17g' itself, one value at a time.

The text is built on 64-bit words. A slot of three words, 24 bytes, holds
one value: the sign in byte 0, the body in bytes 1..22 and the separator
in byte 23, every byte at a place fixed by q and by the count of
significant digits, unused bytes NUL; `bytes.translate` deletes the NULs
in one C pass.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["format_rows"]

_U64 = np.uint64
_Q_MIN, _Q_MAX = -11, 15        # fast range: 10^_Q_MIN <= |x| < 10^(_Q_MAX + 1)
_HALF = _U64(1 << 63)           # a remainder scaled to 64 bits: one half
_ZERO_CHARS = _U64(0x3030303030303030)
_SLOW = 0x01                    # slot byte 0 of a value that '%.17g' formats


def _decade_floor(j: int) -> float:
    """The least double >= 10^j: the nearest one, or the next one up."""
    x = float(f"1e{j}")
    num, den = x.as_integer_ratio()
    if num * 10 ** max(-j, 0) < den * 10 ** max(j, 0):
        x = math.nextafter(x, math.inf)
    return x


# |x| >= _DECADE[j - _Q_MIN] exactly when |x| >= 10^j, for j in _Q_MIN.._Q_MAX + 1
_DECADE = np.array([_decade_floor(j) for j in range(_Q_MIN, _Q_MAX + 2)])
_FAST_LO, _FAST_HI = _DECADE[0], _DECADE[-1]

# per biased exponent e, q - _Q_MIN for 2^(e - 1023) (held in -1.._Q_MAX - _Q_MIN)
# and the least |x| of that binade a decade higher
_QI_OF_EXP = np.clip(
    np.searchsorted(_DECADE, (np.arange(2048, dtype=_U64) << _U64(52)).view(np.float64), "right")
    - 1,
    -1,
    _Q_MAX - _Q_MIN,
)
_NEXT_DECADE = _DECADE[_QI_OF_EXP + 1]

# per q: 5^k scaled by 2^t into [2^62, 2^63), its 32-bit halves, and the
# base of the right shift _SHIFT_BASE - e (always 58..62) taking M 5^k 2^t to D
_K = [16 - q for q in range(_Q_MIN, _Q_MAX + 1)]
_T = [63 - (5**k).bit_length() for k in _K]
_POW5 = np.array([5**k << t for k, t in zip(_K, _T)], dtype=_U64)
_POW5_LO, _POW5_HI = _POW5 & _U64(0xFFFFFFFF), _POW5 >> _U64(32)
_SHIFT_BASE = np.array([t - k + 1075 for k, t in zip(_K, _T)], dtype=np.int64)

# 10^4 words of four ASCII digits, the first digit in the low byte
_N4 = np.arange(10**4, dtype=_U64)
_DIGITS4 = sum((_N4 // _U64(10**p) % _U64(10) + _U64(48)) << _U64(24 - 8 * p) for p in range(4))

# per biased exponent of float(w), w the digit word xor "00000000": the
# significant digits up to w's last nonzero digit, w being digits 1..8
# (_SIG_A, 1 for none) or 9..16 (_SIG_B, 0 for none) of the 17
_BYTE = (np.arange(2048) - 1023) // 8
_SIG_A = np.where(_BYTE >= 0, 2 + _BYTE, 1)
_SIG_B = np.where(_BYTE >= 0, 10 + _BYTE, 0)


def _slot_tables():
    """Per q - _Q_MIN: how far the high copy of the digits sits above the
    low one, in bits. Per (q - _Q_MIN) * 18 + significant digits: the
    three words of the slot bytes taken from the low copy, from the high
    copy, and of the constant characters (the separator a comma).

    The low copy holds the 17 digits from byte 1, the high copy holds
    them from byte 2 (or 2 - q); the point falls between the two:
        ddd.ddd   (q >= 0)       q + 1 digits low, the rest high
        0.000ddd  (-4 <= q < 0)  every digit high, from byte 2 - q
        d.ddde-XX (q < -4)       one digit low, the rest high
    Digits past the last significant one, and a point with no digit
    after it, are left out."""
    q = np.arange(_Q_MIN, _Q_MAX + 1)[:, None, None]
    sig = np.arange(18)[None, :, None]
    b = np.arange(24)[None, None, :]
    fixed, sci = q >= 0, q < -4
    small = ~fixed & ~sci
    low_end = np.where(fixed, q + 2, np.where(sci, 2, 1))
    high_start = np.where(fixed, q + 3, np.where(sci, 3, 2 - q))
    high_end = high_start + sig - (low_end - 1)
    low = (b >= 1) & (b < low_end)
    high = (b >= high_start) & (b < high_end)
    point = np.where(small, b == 2, (b == high_start - 1) & (high_end > high_start))
    zeros = small & ((b == 1) | ((b >= 3) & (b < 2 - q)))
    tens, units = 48 + (-q) // 10, 48 + (-q) % 10
    exponent = np.select([b == 19, b == 20, b == 21, b == 22], [ord("e"), ord("-"), tens, units])
    const = point * ord(".") + zeros * ord("0") + sci * exponent + (b == 23) * ord(",")
    words = [
        np.ascontiguousarray(np.broadcast_to(byte, const.shape), dtype=np.uint8)
        .view("<u8")
        .reshape(-1, 3)
        .T.astype(_U64)
        for byte in (low * 0xFF, high * 0xFF, const)
    ]
    up = (8 * np.where(small, 1 - q, 1)).astype(_U64).ravel()
    return up, *words


_UP, _LOW, _HIGH, _CONST = _slot_tables()
_NEWLINE = _U64((ord(",") ^ ord("\n")) << 56)


def _round(floor, rem):
    """floor + rem / 2^64 rounded to an integer, a tie to even."""
    return floor + ((rem + (floor & _U64(1))) > _HALF)


def format_rows(block: np.ndarray) -> bytes:
    """The bytes '%.17g' gives each value of the (r, c) float64 block,
    joined by "," within a row, each row ended by "\\n"."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= _FAST_LO) & (a < _FAST_HI)))
    a[slow] = 1.0
    bits = a.view(_U64)
    e = (bits >> _U64(52)).view(np.int64)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    qi = _QI_OF_EXP[e] + (a >= _NEXT_DECADE[e])          # q - _Q_MIN, exact

    # m 5^k 2^t as a 128-bit (hi, lo) product of 32-bit halves
    f_lo, f_hi = _POW5_LO[qi], _POW5_HI[qi]
    m_lo, m_hi = m & _U64(0xFFFFFFFF), m >> _U64(32)
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    lo = low + (mid << _U64(32))
    hi = m_hi * f_hi + (mid >> _U64(32)) + (lo < low)

    shift = (_SHIFT_BASE[qi] - e).view(_U64)
    left = _U64(64) - shift
    d = _round((hi << left) | (lo >> shift), lo << left)

    # the digits: d0, then words a and b of eight ASCII digits each, from
    # four groups of four (int64 views index the tables without a copy)
    d0 = d // _U64(10**16)
    rest = d - d0 * _U64(10**16)
    top = rest // _U64(10**8)
    bottom = rest - top * _U64(10**8)
    words = []
    for half in (top, bottom):
        first = half // _U64(10**4)
        second = half - first * _U64(10**4)
        words.append(_DIGITS4[first.view(np.int64)] | (_DIGITS4[second.view(np.int64)] << _U64(32)))
    word_a, word_b = words
    last_a = ((word_a ^ _ZERO_CHARS).astype(np.float64).view(_U64) >> _U64(52)).view(np.int64)
    last_b = ((word_b ^ _ZERO_CHARS).astype(np.float64).view(_U64) >> _U64(52)).view(np.int64)
    key = qi * 18 + np.maximum(_SIG_A[last_a], _SIG_B[last_b])

    # the low copy of the 17 digits from byte 1, the high copy _UP bits higher
    lo0 = ((d0 + _U64(48)) << _U64(8)) | (word_a << _U64(16))
    lo1 = (word_a >> _U64(48)) | (word_b << _U64(16))
    lo2 = word_b >> _U64(48)
    up = _UP[qi]
    down = _U64(64) - up
    hi0 = lo0 << up
    hi1 = (lo1 << up) | (lo0 >> down)
    hi2 = (lo2 << up) | (lo1 >> down)

    sign = (x.view(_U64) >> _U64(63)) * _U64(ord("-"))
    w0 = (lo0 & _LOW[0][key]) | (hi0 & _HIGH[0][key]) | _CONST[0][key] | sign
    w1 = (lo1 & _LOW[1][key]) | (hi1 & _HIGH[1][key]) | _CONST[1][key]
    w2 = (lo2 & _LOW[2][key]) | (hi2 & _HIGH[2][key]) | _CONST[2][key]
    w2.reshape(rows, cols)[:, -1] ^= _NEWLINE
    w0[slow] = _SLOW
    w1[slow] = 0
    w2[slow] &= _U64(0xFF << 56)
    text = np.stack([w0, w1, w2], axis=1).astype("<u8", copy=False).tobytes().translate(None, b"\0")
    if not slow.size:
        return text
    pieces = text.split(bytes([_SLOW]))
    out = [pieces[0]]
    for value, piece in zip(x[slow].tolist(), pieces[1:]):
        out += [b"%.17g" % value, piece]
    return b"".join(out)
