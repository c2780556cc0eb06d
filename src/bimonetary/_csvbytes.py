"""The CSV text of a float64 column, made for the whole column: each entry
gets the bytes ``repr`` gives it, in a row padded with ``0xFF`` (never in
UTF-8).

``repr`` writes the shortest decimal that reads back as the double, the
nearest when several are that short (Steele & White, PLDI 1990; Adams,
PLDI 2018). Let ``a = |x|``, ``e = floor(log10 a)``, ``v = a * 10**(16 -
e)`` in ``[1e16, 1e17)`` and ``h = spacing(a) * 10**(16 - e) / 2`` in
``(0.55, 12)``. Unless the mantissa of ``a`` is a power of two, what reads
back lies within ``h`` of ``v``: at most one 15-digit decimal (they are 100
apart), the rounding of ``v``, which any shorter one equals; else the
16-digit rounding if within ``h``; else the 17-digit one, which always is.

Error bound. With ``10**k = H + L``, the nearest doubles (from integers),
Dekker's two-product (1971) gives ``p + err = a * H`` exactly, ``p > 2**53``
an integer, and ``s = err + a * L`` is off ``v - p`` by under ``4e-15``:
``2**-49`` rounding ``s`` (``|err| <= 8``, ``|a * L| < 12``), ``2**-50``
rounding ``a * L``, ``12 * 2**-53`` from ``L``'s own error. ``N % 100 + f``
(``N = p + floor(s)``) adds ``2**-47`` and ``h`` is off by ``12 * 2**-52``:
each test below is right when it clears its boundary by ``MARGIN = 1e-9``.
A cell where one does not (a tie such as ``1234567890123456.25``, a decimal
on an end of the interval) goes to ``repr``, as does one whose ``log10``
was off and left ``N`` outside ``[1e16, 1e17)`` (no inexact double is
within ``2.6e-19`` of a power of ten), one outside ``[1e-290, 1e290]``,
where the split leaves the normal range, and a power-of-two mantissa.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MARGIN, PAD, FLOAT_WIDTH, _BLOCK = 1e-9, 0xFF, 48, 16_384
_K_MIN, _K_MAX, _E_MIN, _E_MAX = -275, 308, -330, 330  # 16 - e; e


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as the sum of two halves of 26 bits each (Veltkamp)."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


@cache
def _tables():
    """Built on first use; :func:`_float_block` says what they hold."""
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        top, bottom = 10 ** max(k, 0), 10 ** max(-k, 0)
        num, den = (top / bottom).as_integer_ratio()  # int / int rounds right
        powers.append((num / den, (top * den - num * bottom) / (bottom * den)))
    H, L = np.array(powers).T.copy()
    powers = (H, L, *(half * 2.0**64 for half in _split(H * 2.0**-64)))
    quad = np.arange(10_000)
    zeros = sum((quad % 10**j == 0).astype(np.int64) for j in range(1, 5))
    digits = quad[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    groups = np.full((5, 10_000, 8), PAD, np.uint8)
    for j in range(1, 5):
        groups[j, :, 0 : 2 * j : 2] = digits[:, :j]
    heads = [sign + b"0.000"[:j].ljust(5, b"\0") + b"%d" % digit
             for sign in (b"\0", b"-") for j in (0, 2, 3, 4, 5) for digit in range(10)]
    exponents = [b"e%+03d" % e for e in range(_E_MIN, _E_MAX)] + [b""]
    words = np.array(heads + exponents, "S8").view(np.uint8)  # padded with NUL
    words[words == 0] = PAD
    heads, exponents = np.split(words.view(np.uint64), [len(heads)])
    return powers, zeros, groups.reshape(-1).view(np.uint64), heads, exponents


def float_cells(x: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of every entry of a float array, and nothing for
    NaN, as the rows of an ``(n, 48)`` byte matrix padded with ``PAD``."""
    x = np.asarray(x, np.float64)
    # in blocks whose temporaries stay in cache
    blocks = [_float_block(x[i : i + _BLOCK]) for i in range(0, len(x), _BLOCK)]
    return np.concatenate(blocks) if blocks else np.empty((0, FLOAT_WIDTH), np.uint8)


def _float_block(x: np.ndarray) -> np.ndarray:
    (H, L, H_hi, H_lo), zeros, groups, heads, exponents = _tables()
    a = np.abs(x)
    nan, zero = np.isnan(x), a == 0
    fast = (a >= 1e-290) & (a <= 1e290) & (x.view(np.uint64) << np.uint64(12) != 0)
    a = np.where(fast, a, 1.5)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = np.clip(16 - e, _K_MIN, _K_MAX) - _K_MIN
    H, L, H_hi, H_lo = H.take(k), L.take(k), H_hi.take(k), H_lo.take(k)
    a_hi, a_lo = _split(a)
    p = a * H
    s = ((a_hi * H_hi - p) + a_hi * H_lo + a_lo * H_hi) + a_lo * H_lo + a * L
    N = p.astype(np.int64) + np.floor(s).astype(np.int64)
    f = s - np.floor(s)
    h = 0.5 * np.spacing(a) * H
    m2, m1 = N - N // 100 * 100, N - N // 10 * 10
    up2, up1 = m2 + f > 50, m1 + f > 5  # the roundings to 15 and 16 digits
    d2, d1 = np.abs(m2 + f - 100.0 * up2), np.abs(m1 + f - 10.0 * up1)
    M = np.where(d1 < h, N - m1 + 10 * up1, N + (f > 0.5))
    M = np.where(d2 < h, N - m2 + 100 * up2, M)
    unsure = (N < 10**16) | (N >= 10**17)
    for value, boundary in ((d2, h), (d1, h), (m1 + f, 5.0), (f, 0.5)):
        unsure |= np.abs(value - boundary) < MARGIN
    carry = M == 10**17
    M[carry], e[carry] = 10**16, e[carry] + 1
    M[zero], e[zero] = 0, 0

    # 48 bytes of table words: sign, "0." and zeros of the fixed form below 1,
    # lead digit; 4 words of 4 digits, each digit followed by a byte for the
    # point, of which 10000 * j + digits shows j; "e+dd" for e < -4 or e >= 16.
    # Shown are the significant digits, in the fixed form at least the
    # integer part and one fraction digit.
    lead, rest = M // 10**16, M - M // 10**16 * 10**16
    quads = []
    for scale in (10**12, 10**8, 10**4, 1):
        quads.append(rest // scale)
        rest = rest - quads[-1] * scale
    count = np.ones(len(x), np.int64)  # up to the last nonzero digit
    for end, g in zip((5, 9, 13, 17), quads):
        count = np.where(g != 0, end - zeros.take(g), count)
    fixed = (e >= -4) & (e < 16)
    shown = np.where(fixed & (e >= 0), np.maximum(count, e + 2), count)
    cells = np.empty((len(x), 6), np.uint64)
    cells[:, 0] = heads.take(50 * np.signbit(x) + 10 * (fixed & (e < 0)) * -e + lead)
    for i, g in enumerate(quads):
        cells[:, 1 + i] = groups.take(np.clip(shown - 1 - 4 * i, 0, 4) * 10_000 + g)
    cells[:, 5] = exponents.take(np.where(fixed, _E_MAX - _E_MIN, e - _E_MIN))
    out = cells.view(np.uint8)
    # the point follows digit e + 1 of the fixed form, or the first digit
    point = np.flatnonzero((fixed & (e >= 0)) | (~fixed & (count > 1)))
    out.reshape(-1)[point * FLOAT_WIDTH + 7 + 2 * np.where(fixed, e, 0)[point]] = 46
    out[nan] = PAD
    slow = np.flatnonzero(~(nan | zero) & (unsure | ~fast))
    if len(slow):  # once per value: a difference of near floats is often 2**j
        values, where = np.unique(x[slow], return_inverse=True)
        text = b"".join(repr(v).encode().ljust(48, b"\xff") for v in values.tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, FLOAT_WIDTH)[where]
    return out
