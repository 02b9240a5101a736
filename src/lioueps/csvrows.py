"""Data rows of a CLI file as bytes, formatted by whole-array integer arithmetic.

Floats come out as '%.17g' and integers as '%d' would write them, byte for
byte.  A float with 1e-10 <= |x| < 1e15 is |x| = M 2^e with M < 2^53, and
its 17 significant digits are N = round-half-even(M 5^q 2^(e+q)) with
q = 16 - floor(log10 |x|).  In that range 5^q fits in 64 bits, M 5^q in
128 and e + q < 0, so N is a right shift of a 128-bit product (the
fixed-precision conversion of Adams, "Ryu revisited: printf floating
point conversion", PACMPL 3 OOPSLA, 169, 2019).  The digits are laid out
by the %g rules: trailing zeros stripped, fixed notation for decimal
exponents from -4 up, 'd.ddde-XX' below.  Zero is '0' or '-0'; any other
value (non-finite, subnormal, tiny or huge) is formatted by Python one
value at a time.  The digits of N, and of an integer's magnitude, come
from repeated uint64 division into 4-digit limbs and a table of limbs.

Each value becomes a cell of fixed slots, with 0 in the bytes it leaves
out, and a chunk's rows are its cells in row-major order with the 0 bytes
deleted.  A cell is one unit of UNIT bytes for an integer (sign, then the
digits right-aligned in bytes 1-20) and two for a float:

    0  '-'      1-5  '0.000'      6-22  digits 0-16      23  '.'
    24-39  digits 1-16      40-43  'e-XX'

so that fixed notation shows digits 0..X of the first digit slot, the
point and digits X+1.. of the second.  The last byte of a column's last
unit holds its separator.  Which bytes a cell keeps depends only on its
sign, decimal exponent and digit count, so it is read from a table.
"""

from __future__ import annotations

import numpy as np

UNIT = 23  # bytes per cell unit: an integer takes one, a float two
# cell bytes per chunk of rows; with the kernels' temporaries a chunk peaks
# at about 1 MB (2279 rows of a spectrum's overlaps)
_CHUNK_BYTES = 1 << 18
_MASK32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_ONE, _LIMB = np.uint64(1), np.uint64(10 ** 4)
_LIMB_DIGITS = (np.arange(10 ** 4, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
_POW5 = np.array([5 ** q for q in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_FLOAT_CELL = np.frombuffer(b"-0.000" + b"\xff" * 17 + b"." + b"\xff" * 16 + b"e-00\0\0",
                            np.uint8)
_POS = np.arange(2 * UNIT)


def _mulhilo(m, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from the
    products of their 32-bit halves; m is an int below 2**64 or a uint64
    array that broadcasts against the uint64 array x."""
    m = np.asarray(m, dtype=np.uint64)
    m_lo, m_hi = m & _MASK32, m >> _SHIFT32
    x_lo, x_hi = x & _MASK32, x >> _SHIFT32
    lo_hi, hi_lo = x_lo * m_hi, x_hi * m_lo
    carry = ((x_lo * m_lo) >> _SHIFT32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    hi = x_hi * m_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, x * m  # the low word wraps modulo 2**64


def _scaled(mant, exp2, dec):
    """floor(mant 2^exp2 10^(16 - dec)) and whether rounding it half to
    even adds one, for 1 <= -(exp2 + 16 - dec) <= 63."""
    q = 16 - dec
    hi, lo = _mulhilo(_POW5[q], mant)
    shift = (-(exp2 + q)).astype(np.uint64)
    n = (hi << (np.uint64(64) - shift)) | (lo >> shift)
    rest, half = lo & ((_ONE << shift) - _ONE), _ONE << (shift - _ONE)
    return n, (rest > half) | ((rest == half) & (n & _ONE).astype(bool))


def _digits(n, count):
    """The last count decimal digits of the uint64 values n as ASCII, most
    significant first, an (n.size, count) uint8 array: n is cut into
    4-digit limbs by repeated division, and each limb read from a table."""
    limbs = np.empty((n.size, -(-count // 4)), np.intp)
    for k in range(limbs.shape[1] - 1, -1, -1):
        div = n // _LIMB
        limbs[:, k] = n - div * _LIMB
        n = div
    return np.take(_LIMB_DIGITS, limbs, axis=0).reshape(n.size, -1)[:, -count:]


def _float_layouts():
    """The cell of every layout code ((dec + 11) 17 + kept - 1) 2 + neg, for
    a decimal exponent dec in [-11, 15], kept significant digits in [1, 17]
    and the sign bit neg: its fixed characters, 0xFF in the digit bytes
    it uses and 0 in every byte it leaves out."""
    dec, kept, neg = (g.ravel() for g in np.meshgrid(
        np.arange(-11, 16), np.arange(1, 18), [False, True], indexing="ij"))
    expo, small = dec < -4, (dec < 0) & (dec >= -4)
    lead = np.where(dec >= 0, dec + 1, 1)  # digits before the point
    end = np.where(dec >= 0, np.maximum(kept, lead), kept)
    cells = np.tile(_FLOAT_CELL, (dec.size, 1))
    cells[:, 42:44] += np.stack(np.divmod(np.where(expo, -dec, 0), 10), axis=1).astype(np.uint8)
    used = np.empty(cells.shape, bool)
    used[:, 0] = neg
    used[:, 1:6] = _POS[:5] < np.where(small, 1 - dec, 0)[:, None]
    used[:, 6:23] = _POS[:17] < lead[:, None]
    used[:, 23] = (end > lead) & ~small
    used[:, 24:40] = (_POS[:16] >= lead[:, None] - 1) & (_POS[:16] < end[:, None] - 1)
    used[:, 40:44] = expo[:, None]
    return np.where(used, cells, 0).astype(np.uint8)


_FLOAT_LAYOUTS = _float_layouts()


def _int_layouts():
    """The cell of every layout code (width - 1) 2 + neg, for width digits
    in [1, 20] and the sign neg: '-' or 0, then 0xFF in the digit bytes it
    uses, right-aligned, and 0 in every byte it leaves out."""
    width, neg = (g.ravel() for g in np.meshgrid(np.arange(1, 21), [False, True],
                                                  indexing="ij"))
    cells = np.zeros((width.size, UNIT), np.uint8)
    cells[:, 0] = np.where(neg, ord("-"), 0)
    cells[:, 1:21] = np.where(_POS[:20] >= 20 - width[:, None], 0xFF, 0)
    return cells


_INT_LAYOUTS = _int_layouts()


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Cells (x.size, 2 UNIT) of the float64 values x, 0 in unused bytes."""
    x = np.asarray(x, dtype=np.float64)
    mag = np.abs(x)
    fast = (mag >= 1e-10) & (mag < 1e15)
    zero = mag == 0
    mag = np.where(fast, mag, 1.0)
    frac, exp2 = np.frexp(mag)
    mant, exp2 = np.ldexp(frac, 53).astype(np.uint64), exp2.astype(np.int64) - 53
    dec = np.floor(np.log10(mag)).astype(np.int64)
    n, up = _scaled(mant, exp2, dec)
    # log10 can round across a power of ten: move those values one decade
    off = (n >= np.uint64(10 ** 17)).astype(np.int64) - (n < np.uint64(10 ** 16))
    fix = np.flatnonzero(off)
    if fix.size:
        dec[fix] += off[fix]
        n[fix], up[fix] = _scaled(mant[fix], exp2[fix], dec[fix])
    n = n + up
    carry = n == np.uint64(10 ** 17)  # rounded up to the next decade
    n = np.where(carry, np.uint64(10 ** 16), np.where(zero, np.uint64(0), n))
    dec = np.where(zero, 0, dec + carry)
    digits = _digits(n, 17)
    kept = np.where(zero, 1, 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1))
    cells = np.take(_FLOAT_LAYOUTS, ((dec + 11) * 17 + kept - 1) * 2 + np.signbit(x), axis=0)
    cells[:, 6:23] &= digits
    cells[:, 24:40] &= digits[:, 1:]
    for i in np.flatnonzero(~(fast | zero)).tolist():
        text = np.frombuffer(b"%.17g" % x[i], np.uint8)
        cells[i] = 0
        cells[i, :text.size] = text
    return cells


def _int_cells(x: np.ndarray) -> np.ndarray:
    """Cells (x.size, UNIT) of the integers x, 0 in unused bytes."""
    neg = x < 0
    mag = x.astype(np.uint64)
    mag = np.where(neg, np.uint64(0) - mag, mag)
    width = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
    count = int(width.max())
    cells = np.take(_INT_LAYOUTS, (width - 1) * 2 + neg, axis=0)
    cells[:, 21 - count:21] &= _digits(mag, count)
    return cells


def _constant(col: np.ndarray) -> bool:
    """Whether every entry of a column has the bits of the first, so that
    one formatted value stands for all (-0.0 and 0.0 differ)."""
    raw = np.ascontiguousarray(col).view(np.uint8).reshape(col.size, -1)
    return bool((raw == raw[0]).all())


def block_rows(columns):
    """Yield the rows of one block of equally long 1-D columns as bytes,
    a chunk of rows at a time.

    An integer column (int64 or narrower) is written as %d and any other
    as %.17g.  A column that holds one value in the block (the param of a
    grid point's rows) is formatted once.
    """
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0])
    if not rows:
        return
    ints = [np.issubdtype(col.dtype, np.integer) for col in columns]
    # a constant column's value, formatted once; None where a kernel formats
    texts = [(b"%d" if is_int else b"%.17g") % col[0].item() if _constant(col) else None
             for col, is_int in zip(columns, ints)]
    units = [-(-(len(text) + 1) // UNIT) if text else 1 if is_int else 2
             for text, is_int in zip(texts, ints)]
    # a row's units holding the constant columns' values and the separators
    seps = [b","] * (len(units) - 1) + [b"\n"]
    fixed = b"".join((text or b"").ljust(UNIT * width - 1, b"\0") + sep
                     for text, width, sep in zip(texts, units, seps))
    if None not in texts:
        yield fixed.translate(None, b"\0") * rows
        return
    first = np.cumsum([0] + units[:-1])
    kernels = []
    for is_int, cells in ((False, _float_cells), (True, _int_cells)):
        cols = [c for c, text in enumerate(texts) if text is None and ints[c] == is_int]
        if cols:
            kernels.append((np.add.outer(first[cols], range(2 - is_int)).ravel(), cells,
                            [columns[c] for c in cols]))
    fixed = np.frombuffer(fixed, np.uint8).reshape(-1, UNIT)
    step = max(1, _CHUNK_BYTES // fixed.size)
    for start in range(0, rows, step):
        chunk = min(step, rows - start)
        out = np.zeros((chunk,) + fixed.shape, np.uint8)
        for at, cells, cols in kernels:
            values = np.stack([col[start:start + chunk] for col in cols], axis=1)
            out[:, at] = cells(values.ravel()).reshape(chunk, -1, UNIT)
        out |= fixed
        yield out.tobytes().translate(None, b"\0")
