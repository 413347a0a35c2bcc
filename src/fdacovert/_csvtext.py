"""How the CSVs write values: fmt for one value, grid_text for a block of grid rows.

fmt is the one definition of a value's text: Python's repr of a float,
shortest text that parses back to the same value, with a trailing '.0'
dropped.  The grid CSVs of heatmap and region hold one 'x,y,value' line per
cell, so grid_text turns a whole block of grid rows into its text in a few
dozen numpy calls, with the same bytes as fmt per cell.

Digits.  The shortest, then closest, decimal of each positive normal float64
comes from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) in exact uint64 arithmetic: the 126-bit scale g(k) ~ 10^-k is kept as
two 63-bit limbs, and the 64x128-bit products of its round-to-odd step are
formed from 32-bit limbs.  Subnormals, zeros, negatives, inf and nan are rare
in a map and go through fmt one value at a time.

Layout.  Each cell's line is first a fixed-width byte canvas in which every
absent byte is NUL, and the block's text is its non-NUL bytes in order.  The
value field has a slot for each piece a repr can hold: '0.' and three zeros,
the first digit, digits 2-17, a '.', digits 2-17 again (for a point after the
first digit or inside the digits), 'e', the exponent's sign and three digits.
With the value 0.d1d2... x 10^decpt and n digits, repr is positional for
-4 < decpt <= 16 and d.ddde-05 otherwise, with at least two exponent digits;
a table indexed by (decpt, n) or (n, exponent width) keeps each layout's
slots and drops the rest.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def fmt(value) -> str:
    """Shortest text that parses back to exactly the same value."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        s = repr(v)
        return s[:-2] if s.endswith(".0") else s
    return str(value)


# ------------------------------------------------------------------ digits

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_C_MIN = 1 << 52  # a normal significand's hidden bit, and the least positive normal's bits
_NORMAL_SPAN = (2047 << 52) - _C_MIN  # the positive normals' bits lie in [_C_MIN, + span)


def _flog10pow2(e):
    return (e * 661_971_961_083) >> 41  # floor(e log10 2) for |e| < 5.4e6


def _flog10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41  # floor(log10(3/4 2^e))


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38  # floor(e log2 10) for |e| < 6.4e6


def _scale_table():
    """k, h and g(k) as two 63-bit limbs, indexed by 2 * biased exponent + irregular.

    A float64 c 2^q (c its 53-bit significand) is scaled by 10^-k with
    10^k <= 2^q, or <= 3/4 2^q for a power of two above the least normal
    (irregular: its lower neighbour is half as far as its upper).
    g(k) = floor(10^-k 2^-r) + 1 with r chosen so that 2^125 <= g < 2^126,
    and h makes g (4c << h) / 2^127 ~ 4c 2^q 10^-k.
    """
    bq = np.arange(2047).repeat(2)  # biased exponent 0 (no normal float) stays unused
    q = bq - 1075
    irregular = (np.arange(bq.size) % 2 == 1) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    k_min, k_max = int(k[2:].min()), int(k[2:].max())  # -324, 292
    g1, g0 = [], []
    for kk in range(k_min, k_max + 1):
        r = _flog2pow10(-kk) - 125
        num, den = (10 ** -kk, 1) if kk <= 0 else (1, 10 ** kk)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    at = np.clip(k - k_min, 0, k_max - k_min)
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    return k, h, np.array(g1, _U64).take(at), np.array(g0, _U64).take(at)


_TK, _TH, _TG1, _TG0 = _scale_table()


def _limbs(a):
    return a & _M32, a >> 32


def _mulhi(a, b):
    """High 64 bits of the 128-bit products a*b, given as (low, high) 32-bit limbs."""
    a0, a1 = a
    b0, b1 = b
    lolo = a0 * b0
    hilo = a1 * b0
    cross = (lolo >> 32) + (hilo & _M32) + a0 * b1
    return a1 * b1 + (hilo >> 32) + (cross >> 32)


def _rop(g1, g_limbs, cp):
    """g cp / 2^127 rounded to odd, for g = g1 2^63 + g0 (Schubfach's rop)."""
    g1_limbs, g0_limbs = g_limbs
    cp_limbs = _limbs(cp)
    z = ((g1 * cp) >> 1) + _mulhi(g0_limbs, cp_limbs)
    return (_mulhi(g1_limbs, cp_limbs) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """(d, k): the shortest, then closest, decimal d 10^k of positive normal float64 bits.

    d has 16 or 17 digits, trailing zeros included.
    """
    bq = bits >> 52
    c = (bits & _U64(_C_MIN - 1)) | _U64(_C_MIN)
    irregular = (c == _C_MIN) & (bq > 1)
    i = (2 * bq + irregular).astype(np.intp)
    g1 = _TG1.take(i)
    g_limbs = (_limbs(g1), _limbs(_TG0.take(i)))
    h = _TH.take(i)
    out = c & 1  # an odd significand's interval excludes its ends
    cb = c << 2
    vb = _rop(g1, g_limbs, cb << h)
    vbl = _rop(g1, g_limbs, (cb - 2 + irregular) << h) + out
    vbr = _rop(g1, g_limbs, (cb + 2) << h) - out
    s = vb >> 2
    t = s + 1
    sp10 = (s // 10) * 10
    tp10 = sp10 + 10
    # one digit fewer if exactly one of sp10, tp10 lies in the interval;
    # else s or t, the one inside, or if both are, the closer (s on a tie
    # when even)
    upin = vbl <= sp10 << 2
    wpin = tp10 << 2 <= vbr
    uin = vbl <= s << 2
    win = t << 2 <= vbr
    mid = (s + t) << 1
    closer_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    d = np.where(uin != win, np.where(uin, s, t), np.where(closer_s, s, t))
    return np.where(upin != wpin, np.where(upin, sp10, tp10), d), _TK.take(i)


# ------------------------------------------------------------------ layout

# Byte slots of the value field, filled and masked as six little-endian
# uint64 words: '0.000' and the first digit (word 0), digits 2-17 (words
# 1-2), then a '.', digits 2-17 again, 'e', the exponent's sign and three
# digits, and the line's newline (words 3-5).
_FIRST = 5
_POINT = 24
_EXP = 41
_WORDS = 6
_NEWLINE = 8 * _WORDS - 1
_POSITIONAL = 17 * 20  # layouts (decpt, n) for -3 <= decpt <= 16, n = 1..17


def _layouts():
    """Per word of the value field, per layout: 0xFF on the bytes the layout keeps.

    Positional layouts are numbered (decpt + 3) * 17 + n - 1, the
    exponent layouts after them _POSITIONAL + 2 (n - 1) + (three exponent
    digits), for the value 0.d1d2... x 10^decpt with n digits.
    """
    first = [_FIRST] + [7 + j for j in range(1, 17)]  # digit j, first copy
    second = [None] + [_POINT + j for j in range(1, 17)]  # digit j, second copy
    keep = np.zeros((_POSITIONAL + 2 * 17, 8 * _WORDS), np.uint8)
    keep[:, _NEWLINE] = 0xFF
    for decpt in range(-3, 17):
        for n in range(1, 18):
            row = keep[(decpt + 3) * 17 + n - 1]
            if decpt <= 0:  # 0.000ddd
                row[:2 - decpt] = 0xFF
                row[first[:n]] = 0xFF
            elif decpt < n:  # ddd.ddd
                row[first[:decpt]] = 0xFF
                row[[_POINT] + second[decpt:n]] = 0xFF
            else:  # ddd000, whose '.0' fmt drops
                row[first[:decpt]] = 0xFF
    for n in range(1, 18):
        for wide in (0, 1):  # d.ddde-05 or d.ddde-305
            row = keep[_POSITIONAL + 2 * (n - 1) + wide]
            row[first[:1] + ([_POINT] + second[1:n] if n > 1 else [])] = 0xFF
            row[[_EXP, _EXP + 1] + list(range(_EXP + 3 - wide, _EXP + 5))] = 0xFF
    return [np.ascontiguousarray(word) for word in keep.view(_U64).T]


_KEEP = _layouts()


def _ascii_words(width: int, count: int) -> np.ndarray:
    """The zero-padded decimal text of 0..count-1, width digits each, as uint64 words."""
    i = np.arange(count, dtype=_U64)
    words = np.zeros(count, _U64)
    for place in range(width):  # the first digit in the lowest byte
        words |= (i // 10 ** (width - 1 - place) % 10 + ord("0")) << (8 * place)
    return words


_DIGITS4 = _ascii_words(4, 10_000)
_DIGITS3 = _ascii_words(3, 1000)
_WORD0 = _U64(int.from_bytes(b"0.000", "little"))
_WORD5 = _U64(ord("e") << 8 | ord("\n") << 56)


def _eight_digits(part):
    upper = part // 10_000
    return _DIGITS4.take(upper) | (_DIGITS4.take(part - upper * 10_000) << 32)


def _value_words(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Each float's text as fmt writes it into its row of words, NUL where absent.

    Returns the rows it leaves to fmt: the values that are not positive
    normal floats.
    """
    bits = values.view(_U64)
    normal = bits - _U64(_C_MIN) < _U64(_NORMAL_SPAN)  # positive, normal, finite
    d, k = _shortest(np.where(normal, bits, _U64(_C_MIN)))
    full = d >= 10 ** 16
    d = np.where(full, d, d * 10)  # 17 digits, trailing zeros included
    decpt = k + 16 + full
    n = np.full(d.shape, 17)
    rest = d
    for zeros in (16, 8, 4, 2, 1):
        p = 10 ** zeros
        q = rest // p
        hit = q * p == rest
        rest = np.where(hit, q, rest)
        n -= hit * zeros
    exponent = decpt - 1
    magnitude = np.abs(exponent)
    layout = np.where(
        (decpt > -4) & (decpt <= 16),
        (decpt + 3) * 17 + n - 1,
        _POSITIONAL + 2 * (n - 1) + (magnitude >= 100),
    )
    upper = d // 100_000_000
    first = upper // 100_000_000
    high = _eight_digits(upper - first * 100_000_000)  # digits 2-9
    low = _eight_digits(d - upper * 100_000_000)  # digits 10-17
    sign = np.where(exponent < 0, _U64(ord("-") << 16), _U64(ord("+") << 16))
    for j, word in enumerate((
        _WORD0 | ((first + ord("0")) << 40),
        high,
        low,
        ord(".") | (high << 8),
        (high >> 56) | (low << 8),
        (low >> 56) | _WORD5 | sign | (_DIGITS3.take(magnitude) << 24),
    )):
        words[:, j] = word & _KEEP[j].take(layout)
    return np.flatnonzero(~normal)


def _text_bytes(texts) -> np.ndarray:
    """Texts as the rows of a byte array, NUL-padded to the longest."""
    a = np.asarray(texts, dtype=np.bytes_)
    return a.view(np.uint8).reshape(a.size, a.itemsize)


def grid_text(x_text: Sequence[str], y_text: Sequence[str], block: np.ndarray) -> str:
    """Lines 'x,y,value' of a block of grid rows, y-outer row-major, each value as fmt writes it.

    x_text holds the text of each column's x, y_text of each row's y, and
    block the (rows, columns) floats or bools; a bool is written 0/1.
    """
    block = np.asarray(block)
    if block.dtype != np.bool_:
        block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    if block.size == 0:
        return ""
    x = _text_bytes(x_text)
    y = _text_bytes(y_text)
    at_y = x.shape[1] + 1
    at_value = at_y + y.shape[1] + 1
    if block.dtype == np.bool_:
        line = np.empty((rows, cols, at_value + 2), np.uint8)
        line[:, :, at_value] = block.view(np.uint8) + ord("0")
        line[:, :, at_value + 1] = ord("\n")
    else:
        padded = -(-at_value // 8) * 8  # the value's words start at a word
        line = np.empty((rows, cols, padded + 8 * _WORDS), np.uint8)
        line[:, :, at_value:padded] = 0
        cells = line.reshape(rows * cols, -1)
        values = block.reshape(-1)
        rest = _value_words(values, cells[:, padded:].view(_U64))
        if rest.size:
            text = np.array([fmt(v) for v in values[rest].tolist()], dtype=f"S{_NEWLINE}")
            cells[rest, padded:padded + _NEWLINE] = text.view(np.uint8).reshape(rest.size, -1)
    line[:, :, :at_y - 1] = x
    line[:, :, at_y - 1] = ord(",")
    line[:, :, at_y:at_value - 1] = y[:, None, :]
    line[:, :, at_value - 1] = ord(",")
    flat = line.reshape(-1)
    return flat[flat != 0].tobytes().decode("ascii")


_BLOCK_CELLS = 4096  # cells per grid_text call: a line canvas of ~0.4 MB


def grid_blocks(x_text: Sequence[str], y_text: Sequence[str], column: np.ndarray):
    """grid_text of column's rows (one per y_text), a block of rows at a time."""
    x_text = np.asarray(x_text, dtype=np.bytes_)
    step = max(1, _BLOCK_CELLS // max(1, x_text.size))
    for start in range(0, len(y_text), step):
        yield grid_text(x_text, y_text[start:start + step], column[start:start + step])
