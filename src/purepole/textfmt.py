"""Numeric text for the CSV and poling artifacts, a block of values at a time.

`render(values, spec)` gives every value of a float array exactly the text
`format(v, spec)` gives it, for the specs ".Nf" and ".Ne", as one row of a
uint8 array padded with NUL bytes.  `write_lines` joins such fields into
lines and writes them as bytes with the padding dropped.

The rounding.  A magnitude a = |v| is scaled to s = a 10^k, with k = N for
".Nf" and k = N - e for ".Ne" (e the decimal exponent of a).  10^k is exact
for |k| <= 22, so one multiplication or division leaves s within 1/2 ulp(s)
of the exact product; beyond that two steps do, within a few ulp.  Where
s < 2^52 and the fraction of s lies more than 2 ulp(s) (8 after two steps)
from 1/2, the exact product rounds to the same integer as s, so `np.rint(s)`
holds the digits that a correctly rounded conversion prints (D. M. Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", AT&T
Numerical Analysis Manuscript 90-10, 1990).  Every other value, one near a
rounding tie, zero, a subnormal, nan, inf, one too large for 2^52 or one
with a three-digit exponent, is printed by `format` itself; nan, inf and
zero take one call per sign per block.  The sign comes from `np.signbit`,
so -0.0 and a negative value that rounds to zero print their '-' as
`format` does.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# values per block: a writer formats and writes at most this many at a time
_POINT_BLOCK = 8192

_EXACT_POWER = 22  # 10^k is a double for 0 <= k <= 22
_TWO_52 = 2.0**52
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_MAX_DIGITS = 14  # N + 1 digits stay below 2^52 for ".Ne"
# nan, inf and zero with each sign bit, in the order render indexes them
_SPECIALS = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0)
_ZERO, _DOT, _MINUS, _PLUS, _E, _NEWLINE = (ord(c) for c in "0.-+e\n")


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """10^k for k = 0..308, each the double nearest it (exact up to 22)."""
    powers = np.array([float(10**k) for k in range(309)])
    powers.setflags(write=False)
    return powers


def _scaled(a: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """a 10^k per element, and the distance from a rounding tie below which
    the exact product may round otherwise: 2 ulp after one exact power of
    ten, 8 ulp after two steps."""
    powers = _powers_of_ten()
    near = np.clip(k, -_EXACT_POWER, _EXACT_POWER)
    far = k - near
    s = np.where(far < 0, a / powers[np.abs(far)], a * powers[np.abs(far)])
    s = np.where(near < 0, s / powers[np.abs(near)], s * powers[np.abs(near)])
    return s, np.where(far == 0, 2.0, 8.0) * np.spacing(s)


def strings(texts: list[str]) -> np.ndarray:
    """uint8 array (len(texts), width): row i holds texts[i] in ASCII,
    padded with NUL bytes."""
    table = np.array([t.encode("ascii") for t in texts], dtype=bytes)
    return table.view(np.uint8).reshape(len(texts), table.dtype.itemsize)


@functools.cache
def _four_digits() -> np.ndarray:
    """"0000" to "9999" in ASCII, each as one uint32, so that one `take`
    gives four digits."""
    return np.frombuffer("".join(f"{n:04d}" for n in range(10_000)).encode("ascii"), dtype=np.uint32)


def _digits(out: np.ndarray, stop: int, width: int, x: np.ndarray) -> None:
    """Write the `width` lowest decimal digits of x (int64, >= 0) into
    out[:, stop - width:stop], zero-padded, four digits at a time."""
    table = _four_digits()
    while width > 0:
        limb = x
        if width > 4:
            x = x // 10_000
            limb = limb - x * 10_000
        text = table.take(limb)
        if width >= 4:
            out[:, stop - 4:stop].view(np.uint32)[:, 0] = text
        else:
            out[:, stop - width:stop] = text.view(np.uint8).reshape(-1, 4)[:, 4 - width:]
        stop, width = stop - 4, width - 4


def render(values, spec: str) -> np.ndarray:
    """uint8 array of shape values.shape + (width,): the last axis holds
    `format(v, spec)` of each value in ASCII, padded with NUL bytes.  spec
    is ".Nf" or ".Ne" with 1 <= N <= 14.  The fields hold a sign column
    only where some value has its sign bit set."""
    kind, places = spec[-1:], spec[1:-1]
    if spec[:1] != "." or kind not in ("f", "e") or not places.isdigit() \
            or not 1 <= int(places) <= _MAX_DIGITS:
        raise ValueError(f"unsupported number format {spec!r}")
    places = int(places)
    values = np.asarray(values, dtype=float)
    v = values.ravel()
    a = np.abs(v)
    negative = np.signbit(v)
    sign = int(negative.any())
    # zero, subnormals, inf and nan take the fallback
    fast = (a >= _TINY) & (a <= _HUGE)
    with np.errstate(all="ignore"):
        if kind == "f":
            s = a * 10.0**places
            tol = 2.0 * np.spacing(s)
        else:
            exponent = np.floor(np.log10(np.where(fast, a, 1.0))).astype(np.int64)
            s, tol = _scaled(a, places - exponent)
            # floor(log10) is off by one next to a power of ten; one step
            # brings s into [10^N, 10^(N+1)), without which ".14e" prints the
            # digits of the wrong exponent
            off = np.flatnonzero(fast & ((s < 10.0**places) | (s >= 10.0 ** (places + 1))))
            if off.size:
                exponent[off] += np.where(s[off] < 10.0**places, -1, 1)
                s[off], tol[off] = _scaled(a[off], places - exponent[off])
        fast &= (s < _TWO_52) & (np.abs(s - np.floor(s) - 0.5) > tol)
        q = np.rint(np.where(fast, s, 0.0)).astype(np.int64)
    if kind == "e":
        # a mantissa that rounds up to 10.00...0 carries into the exponent
        carry = q == 10 ** (places + 1)
        q[carry] = 10**places
        exponent += carry
        fast &= (np.abs(exponent) < 100) & (q >= 10**places) & (q < 10 ** (places + 1))
        q[~fast] = 0
        exponent[~fast] = 0

    if kind == "f":
        whole = q // 10**places
        n_whole = len(str(int(whole.max()))) if whole.size else 1
        width = sign + n_whole + 1 + places
    else:
        width = sign + places + 6
    slow = np.flatnonzero(~fast)
    if slow.size:
        # nan, inf and zero print one of six texts, told apart by kind and
        # sign bit; every other slow value is printed on its own
        held = v[slow]
        index = np.where(np.isnan(held), 0, np.where(np.isinf(held), 2, np.where(held == 0.0, 4, -1)))
        rest = np.flatnonzero(index < 0)
        index += negative[slow]
        index[rest] = len(_SPECIALS) + np.arange(rest.size)
        table = strings([format(x, spec) for x in [*_SPECIALS, *held[rest].tolist()]])
        width = max(width, table.shape[1])
    out = np.zeros((v.size, width), dtype=np.uint8)
    if sign:
        out[negative, 0] = _MINUS
    if kind == "f":
        _digits(out, sign + n_whole, n_whole, whole)
        # leading zeros of the whole part are padding
        for col in range(n_whole - 1):
            out[whole < 10 ** (n_whole - 1 - col), sign + col] = 0
        out[:, sign + n_whole] = _DOT
        _digits(out, sign + n_whole + 1 + places, places, q - whole * 10**places)
    else:
        lead = q // 10**places
        out[:, sign] = lead + _ZERO
        out[:, sign + 1] = _DOT
        _digits(out, sign + 2 + places, places, q - lead * 10**places)
        out[:, sign + 2 + places] = _E
        out[:, sign + 3 + places] = np.where(exponent < 0, _MINUS, _PLUS)
        _digits(out, sign + 6 + places, 2, np.abs(exponent))
    if slow.size:
        out[slow] = 0
        out[slow, : table.shape[1]] = table[index]
    return out.reshape(values.shape + (width,))


def row_blocks(n_rows: int, values_per_row: int) -> list[slice]:
    """Consecutive slices of range(n_rows), each of at most _POINT_BLOCK
    values (and at least one row)."""
    step = max(1, _POINT_BLOCK // values_per_row)
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def write_lines(fh, pieces: list[np.ndarray], sep: bytes = b",") -> None:
    """Write one line per row to the binary file fh.  Each piece holds, for
    every row, one field (rows, width) or a run of them (rows, k, width), as
    `render` or `strings` give them; a row's fields, in piece order, are
    joined by sep and end in a newline."""
    rows = pieces[0].shape[0]
    pieces = [p.reshape(rows, -1, p.shape[-1]) for p in pieces]
    line = np.empty((rows, sum(p.shape[1] * (p.shape[2] + 1) for p in pieces)), dtype=np.uint8)
    start = 0
    for p in pieces:
        stop = start + p.shape[1] * (p.shape[2] + 1)
        cells = line[:, start:stop].reshape(rows, p.shape[1], p.shape[2] + 1)
        cells[..., :-1] = p
        cells[..., -1] = ord(sep)
        start = stop
    line[:, -1] = _NEWLINE
    text = line.ravel()
    fh.write(text if np.count_nonzero(text) == text.size else text.tobytes().translate(None, b"\0"))
