"""CSV rendering: the text of a table, a block of rows at a time.

A block is rendered as one uint8 matrix, a CSV row per matrix row, each cell
in fixed columns padded with NUL bytes; the rows with the NULs dropped are
the CSV text, byte for byte what ``csv.writer`` writes: cells joined by
commas, rows ended by CRLF, a str cell quoted when it holds a comma, a quote
or a line break.  Floats are written as ``FLOAT_FMT`` writes them: those of
1e-4 <= |v| < 1e15 by exact integer arithmetic on their mantissas (no
per-value Python call), every other one (zero, subnormals, inf, nan, the
exponent form) by ``FLOAT_FMT`` itself.  Bools are ``true``/``false``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_ROWS", "FLOAT_FMT", "float_cells", "write_blocks"]

FLOAT_FMT = "%.17g"

# the rows one block renders at a time: ``sweep`` renders this many (p, q)
# cells per block, and a longer block is cut into pieces of this many rows
BLOCK_ROWS = 4096
# the rows of a block are written in slices of about this many bytes
_SLICE_BYTES = 1 << 16

_U32, _U64 = np.uint32, np.uint64
_QUOTE_CHARS = ',"\r\n'
_BOOL_CELLS = np.array([b"false", b"true"]).view(np.uint8).reshape(2, 5)


def _packed_bytes(chars, keep, dtype) -> np.ndarray:
    """Each row of uint8 byte values as one little-endian word of ``dtype``,
    its bytes NUL where ``keep`` is false."""
    return np.where(keep, chars, np.uint8(0)).view(dtype).ravel()


def _digit_tables():
    """The ASCII words that the float path looks up: QUADS and PREFIX.

    QUADS[q + 10^4 * kind], q = 0..9999, is a uint32 of q's four digits:
    kind 0 has the trailing zeros NUL (all NUL for q = 0), kind 1 the leading
    zeros.  PREFIX is the uint64 that ends an integer part, its first three
    bytes free for the sign and its last for the fraction's first digit.
    PREFIX[q + 1000 * point], q = 0..999, holds q's three digits, the leading
    zeros NUL but the units digit always, then "." if ``point``;
    PREFIX[2004 + x] for x = -4..-1 holds "0." and the -x - 1 zeros of a
    value in the decade 10^x.  Every digit's byte has the bits of "0" set,
    so OR-ing _ZEROS into a word writes all of its digits."""
    digits = (np.arange(10**4, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8)
    chars = digits + np.uint8(ord("0"))
    started = np.logical_or.accumulate(digits != 0, axis=1)  # from the first nonzero digit
    ending = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]  # to the last
    quads = np.concatenate([_packed_bytes(chars, keep, _U32) for keep in (ending, started)])
    # prefix bytes: three free, three digits, the point, one free
    text = np.zeros((1000, 8), np.uint8)
    text[:, 3:6] = chars[:1000, 1:]
    text[:, 6] = ord(".")
    keep = np.zeros((1000, 8), bool)
    keep[:, 3:6] = started[:1000, 1:] | [False, False, True]
    prefix = []
    for point in (False, True):
        keep[:, 6] = point
        prefix.append(_packed_bytes(text, keep, _U64))
    small = np.frombuffer(b"".join(zeros.rjust(7, b"\0") + b"\0"
                                   for zeros in (b"0.000", b"0.00", b"0.0", b"0.")), _U64)
    return quads, np.concatenate(prefix + [small])


_QUADS, _PREFIX = _digit_tables()
_ZEROS = _U32(0x30303030)
# the decades 1e-4 .. 1e15, the bounds of the fast range's decades, as
# doubles; 1e-1 .. 1e-4 round up, so |v| >= 1e-k holds exactly when |v| is
# at least 10^-k
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 16)])
_POW10 = 10 ** np.arange(20, dtype=_U64)
_POW5 = 5 ** np.arange(21, dtype=_U64)
_POW5_LOW, _POW5_HIGH = _POW5 & _U64(2**32 - 1), _POW5 >> _U64(32)


def _wide_product(bits: np.ndarray, k: np.ndarray):
    """The 128-bit products m 5^k of the 53-bit mantissas m of doubles (by
    their bits) with 5^k, k = 0..20 (clipped), as (low, high) uint64 halves,
    formed from 32-bit halves: m 5^k < 2^100."""
    m_low = bits & _U64(2**32 - 1)
    m_high = ((bits >> _U64(32)) & _U64(2**20 - 1)) | _U64(2**20)
    f_low, f_high = _POW5_LOW.take(k, mode="clip"), _POW5_HIGH.take(k, mode="clip")
    product = m_low * f_low
    middle = m_low * f_high
    middle += m_high * f_low
    middle += product >> _U64(32)
    product &= _U64(2**32 - 1)
    product |= middle << _U64(32)
    m_high *= f_high
    m_high += middle >> _U64(32)
    return product, m_high


def _significand(bits: np.ndarray, exponent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d = round(|v| 10^(16 - x)), ties to even, for doubles v of the decade
    x with 1e-4 <= |v| < 1e15: the 17 significant digits of %.17g.

    |v| 10^k = m 5^k / 2^s for the 53-bit mantissa m, with k = 16 - x and
    s >= 1 on this range; m 5^k is exact in 128 bits (Adams, "Ryu revisited:
    printf floating point conversion", OOPSLA 2019).  Other values give
    meaningless digits, and no error."""
    k = 16 - x
    low, high = _wide_product(bits, k)
    shift = (1074 - k - exponent).view(_U64)  # s - 1: keeps the rounding bit
    up = _U64(64) - shift
    high <<= up
    halves = low >> shift
    halves |= high
    # ties go to even: round up when the kept bit is set and a lower bit or
    # the last digit's is
    low <<= up
    d = halves >> _U64(1)
    d += halves & ((low != 0) | d) & _U64(1)
    return d


def _integer_words(whole, lead, point, x, words: np.ndarray) -> None:
    """Fill the integer words of fast-path cells (rows of uint32 ``words``,
    the prefix last) from the integer parts, the fraction's first digits,
    whether a fraction is written, and the decades."""
    above = whole // _U64(1000)
    index = (whole - above * _U64(1000)).view(np.int64)
    index += 1000 * point
    prefix = _PREFIX[np.where(x < 0, x + 2004, index)]
    prefix |= (above != 0) * _U64(0x303030 << 24)  # all three digits below a higher one
    prefix |= ((lead + _U64(ord("0"))) * point) << _U64(56)
    n_above = words.shape[1] - 2
    words[:, n_above:] = prefix.view(_U32).reshape(-1, 2)
    for j in range(n_above - 1, -1, -1):
        quad = above % _U64(10**4)
        above //= _U64(10**4)
        words[:, j] = _QUADS[quad.view(np.int64) + 10**4]
        words[:, j] |= (above != 0) * _ZEROS


def _fraction_words(fraction, words: np.ndarray) -> None:
    """Fill the fraction words of fast-path cells from the fraction's other
    16 places (an integer below 10^16): as many quads as ``words`` has."""
    eights = fraction // _POW10[8]
    quads = []
    for eight in (eights.astype(_U32), (fraction - eights * _POW10[8]).astype(_U32)):
        top = eight // _U32(10**4)
        quads += [top, eight - top * _U32(10**4)]
    later = np.zeros(fraction.size, bool)
    for j in range(3, -1, -1):
        if j < words.shape[1]:
            words[:, j] = _QUADS[quads[j]]
            words[:, j] |= later * _ZEROS
        later |= quads[j] != 0


def float_cells(values: np.ndarray) -> np.ndarray:
    """``FLOAT_FMT`` cells of a float64 array, as rows of NUL-padded bytes.

    On the fast range 1e-4 <= |v| < 1e15, %.17g is the fixed form of the
    17-digit decimal nearest |v| (``_significand``), its trailing zeros and a
    bare point dropped.  Its digits go into fixed columns of uint32 words: the
    sign and the integer digits right-aligned (or "0." and the zeros of a v
    below 0.1), the point, then the fraction's 17 places left-aligned.  Zero,
    subnormals, inf, nan and the exponent form take ``FLOAT_FMT % v``.
    """
    bits = values.view(_U64)
    exponent = ((bits >> _U64(52)) & _U64(0x7FF)).view(np.int64)
    # the decade: floor(log10 2^(e - 1023)), or one more
    x = exponent - 1023
    x *= 78913
    x >>= 18
    magnitude = np.abs(values)
    # off the table's range the estimate is more than a decade off the fast
    # range, and so is x whatever the clipped bound says
    x += magnitude >= _DECADES.take(x + 5, mode="clip")
    fast = (x >= -4) & (x <= 14)
    slow = np.flatnonzero(~fast)
    texts = np.array([(FLOAT_FMT % v).encode() for v in values[slow].tolist()], dtype="S")
    low, high = (int(x[fast].min()), int(x[fast].max())) if slow.size < x.size else (0, 0)
    # 17 digits are finer than a double, so no significand rounds up to 10^17:
    # the integer part is |v|'s own, and the fraction is the rest of its digits
    whole = np.fmin(magnitude, 1e15, out=magnitude).astype(_U64)
    fraction = _significand(bits, exponent, x)
    fraction -= whole * _POW10.take(16 - x, mode="clip")
    fraction *= _POW10.take(x + 1, mode="clip")
    point = fraction != 0
    lead = fraction // _POW10[16]
    fraction -= lead * _POW10[16]
    # words: the integer digits above the last three, four to a word, then the
    # prefix (two words: the last three, the point, the fraction's first
    # digit), then the fraction's other 16 places; the cells end at the last
    # place any row reaches
    n_int = (max(high, 0) + 2) // 4 + 2
    places = min(16 - low, 17) - 1 if slow.size < x.size else 0
    width = max(4 * n_int + places, texts.itemsize)
    words = np.zeros((values.size, -(-width // 4)), _U32)
    _integer_words(whole, lead, point, x, words[:, :n_int])
    words[:, 0] |= (bits >> _U64(63)).astype(_U32) * _U32(ord("-"))
    _fraction_words(fraction, words[:, n_int : n_int - (-places // 4)])
    cells = words.view(np.uint8)[:, :width]
    if slow.size:
        cells[slow] = 0
        cells[slow, : texts.itemsize] = texts.view(np.uint8).reshape(slow.size, -1)
    return cells


def _text_cells(cells: list) -> np.ndarray:
    """Cells as strings, quoted as csv.writer's QUOTE_MINIMAL quotes them
    (a cell holding a comma, a quote or a line break), as rows of NUL-padded
    UTF-8 bytes.  A NUL would be dropped with the padding, so it raises."""
    joined = "".join(cells)
    if "\0" in joined:
        raise ValueError("a CSV cell cannot hold a NUL character")
    if any(c in joined for c in _QUOTE_CHARS):
        cells = ['"' + c.replace('"', '""') + '"' if any(q in c for q in _QUOTE_CHARS) else c
                 for c in cells]
    return np.array([c.encode() for c in cells], dtype="S")


def _column(col) -> np.ndarray:
    """One block column as a 1-D array of float64, bool or bytes (``S``)
    cells, or a 0-d one for a scalar that repeats over the block.  A
    sequence's kind is that of its first cell; cells that are neither
    floats, bools nor bytes are written as ``str`` gives them."""
    if not isinstance(col, (list, tuple, np.ndarray)):
        return _column([col]).reshape(())
    if isinstance(col, np.ndarray) and col.dtype.kind in "fbS":
        return np.ascontiguousarray(col, np.float64 if col.dtype.kind == "f" else None)
    cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
    first = cells[0] if cells else 0.0
    if isinstance(first, bool):
        return np.array(cells, dtype=bool)
    if isinstance(first, float):
        return np.array(cells, dtype=np.float64)
    return _text_cells(list(map(str, cells)))


def _cells(column: np.ndarray) -> np.ndarray:
    """A 1-D column's cells as a (rows, width) uint8 matrix, NUL-padded."""
    if column.dtype.kind == "f":
        return float_cells(column)
    if column.dtype.kind == "b":
        return _BOOL_CELLS[column.view(np.uint8)]
    return column.view(np.uint8).reshape(column.size, -1)


def _row_matrix(cells) -> np.ndarray:
    """One piece's cell matrices laid out as CSV rows, NUL padding and all:
    the cells joined by commas, each row ended by CRLF."""
    rows = max(c.shape[0] for c in cells)
    out = np.empty((rows, sum(c.shape[1] for c in cells) + len(cells) + 1), np.uint8)
    start = 0
    for c in cells:
        out[:, start : start + c.shape[1]] = c
        start += c.shape[1]
        out[:, start] = ord(",")
        start += 1
    out[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return out


def _write_compact(fh, rows: np.ndarray) -> None:
    """Write a row matrix without its NUL bytes, in slices of about
    _SLICE_BYTES.  A mask and a copy of the whole piece, made and freed at
    every piece, had the heap shrink and grow again each time: 49,000 page
    faults and a fifth of the time of a million-row sweep."""
    flat = rows.reshape(-1)
    step = rows.shape[1] * max(1, _SLICE_BYTES // rows.shape[1])
    mask = np.empty(min(step, flat.size), bool)
    for start in range(0, flat.size, step):
        part = flat[start : start + step]
        fh.write(part[np.not_equal(part, 0, out=mask[: part.size])])


def write_blocks(fh, blocks) -> None:
    """Write each block of a table in pieces of at most BLOCK_ROWS rows."""
    for block in blocks:
        columns = [_column(col) for col in block]
        rows = next((c.size for c in columns if c.ndim), 1)
        for start in range(0, rows, BLOCK_ROWS):
            _write_compact(fh, _row_matrix(
                [_cells(c[start : start + BLOCK_ROWS] if c.ndim else c.reshape(1))
                 for c in columns]))
