"""The CSV renderer's floats against ``FLOAT_FMT % v``, the bytes csv.writer
writes, on values chosen to break a fixed-precision conversion: every
exponent, both decade edges, exact ties and the special values.

Run as a script, it makes the same comparison on N seeded random doubles:

    PYTHONPATH=src python tests/test_csv_render.py N
"""

import io
import sys

import numpy as np
import pytest

from memwave.cli import _write_csv
from memwave.csvformat import FLOAT_FMT, write_blocks


def _rendered(values: np.ndarray) -> list[bytes]:
    """The cells the block writer writes for a one-column table of floats."""
    fh = io.BytesIO()
    write_blocks(fh, [(values,)])
    return fh.getvalue().split(b"\r\n")[:-1]


def assert_renders_like_printf(values: np.ndarray) -> None:
    got = _rendered(values)
    want = [(FLOAT_FMT % v).encode() for v in values.tolist()]
    assert len(got) == len(want)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, f"{len(wrong)} cells differ, first {wrong[:5]}"


def _random_bits(rng, size: int, exponents=(0, 2048)) -> np.ndarray:
    """Doubles of random sign and mantissa, their biased exponents uniform
    over the given range (every exponent by default: zeros, subnormals,
    inf and nan included)."""
    bits = rng.integers(0, 2**63, size, dtype=np.uint64) & np.uint64(0x800FFFFFFFFFFFFF)
    bits |= rng.integers(*exponents, size, dtype=np.uint64) << np.uint64(52)
    return bits.view(np.float64)


def _ulps_around(values, reach: int) -> np.ndarray:
    """Each value and its neighbours up to ``reach`` ulps either way."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-reach, reach + 1)).ravel().view(np.float64)


def _exact_ties(rng, size: int) -> np.ndarray:
    """Doubles c 2^-a with c odd whose exact decimal c 5^a 10^-a has 18
    significant digits, ending in 5: halfway between two 17-digit decimals.
    a = 3..21 spans the decades 1e-4 to 1e15, a = 22..30 lies below them."""
    a = rng.integers(3, 31, size)
    five = np.array([5.0**k for k in range(31)])[a]
    c = rng.uniform(1e17 / five, np.minimum(1e18 / five, 2.0**53 - 1))
    c = np.floor(c / 2) * 2 + 1  # odd, exact below 2^53
    ties = c * 2.0 ** -a.astype(float)
    return np.concatenate([ties, -ties])


def _cases() -> np.ndarray:
    rng = np.random.default_rng(20261021)
    decades = [float(f"1e{k}") for k in range(-5, 18)]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 9.9999999999999995e-05, 1e16, 1e17, 1e15, 0.1, 0.5,
               1.0, -1.0, 123.0, 1e15 - 0.125, 2.0**53]
    return np.concatenate([
        _random_bits(rng, 100_000),
        _random_bits(rng, 100_000, exponents=(1000, 1076)),  # about 1e-7 .. 1e16
        rng.uniform(-10.0, 10.0, 50_000),
        _ulps_around(decades + [-d for d in decades], 3),
        _ulps_around(_exact_ties(rng, 25_000), 1),
        special,
    ])


def test_floats_render_like_printf():
    values = _cases()
    assert values.size >= 300_000
    assert_renders_like_printf(values)


def test_str_cell_with_nul_raises(tmp_path):
    # the renderer drops NUL bytes as padding, so a NUL in a cell is refused
    path = tmp_path / "nul.csv"
    with pytest.raises(ValueError, match="NUL"):
        _write_csv(path, ["name"], [(["a", "b\0c"],)])
    assert not list(tmp_path.iterdir())


if __name__ == "__main__":
    count = int(sys.argv[1])
    rng = np.random.default_rng(0)
    for start in range(0, count, 250_000):
        n = min(250_000, count - start)
        # half over every exponent, half over the fast range's
        assert_renders_like_printf(np.concatenate([_random_bits(rng, n // 2),
                                                   _random_bits(rng, n - n // 2, (1000, 1076))]))
    print(f"{count} doubles render as {FLOAT_FMT}")
