"""The block formatter of snapshot CSVs against repr(float(v)), field by
field: random bit patterns, the binade and decade edges, the smallest
subnormals, the layout thresholds, integers and a hypothesis property;
the chunk seams against the runner's reference snapshot."""

import io
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from test_runner import reference_snapshot

from rindlersim import _shortest
from rindlersim._shortest import CHUNK_ROWS, write_csv_body
from rindlersim.runner import SNAPSHOT_HEADER, _write_snapshot


def formatted(table) -> bytes:
    handle = io.BytesIO()
    write_csv_body(handle, table)
    return handle.getvalue()


def assert_matches_repr(values, columns=8):
    """Format values `columns` to a row (the last row padded with 0.0)
    and compare every field with repr."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.zeros(-(-values.size // columns) * columns)
    table[: values.size] = values
    table = table.reshape(-1, columns)
    expected = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()
    got = formatted(table)
    if got != expected:
        pairs = zip(re.split(b"[,\n]", expected), re.split(b"[,\n]", got))
        wrong = [(want, have) for want, have in pairs if want != have]
        pytest.fail(f"{len(wrong)} fields differ from repr, (repr, written): {wrong[:5]}")


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        (values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf))
    )


def test_random_bit_patterns():
    bits = np.random.default_rng(20201121).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(float)
    assert_matches_repr(values[np.isfinite(values)])


def test_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = with_neighbours(powers)
    assert_matches_repr(np.concatenate((values, -values)))


def test_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = with_neighbours(powers)
    assert_matches_repr(np.concatenate((values, -values)))


def test_subnormals():
    # every mantissa below 1000: these need no two-digit case and take
    # the shorter candidate from s >= 10 (5e-324, 1e-323, 8e-323)
    small = np.arange(1, 1000, dtype=np.uint64).view(float)
    largest_subnormal = np.array([2**52 - 1], dtype=np.uint64).view(float)
    smallest_normal = np.array([2**52], dtype=np.uint64).view(float)
    values = np.concatenate((small, largest_subnormal, smallest_normal))
    assert_matches_repr(np.concatenate((values, -values)))
    assert formatted(small[[0, 1, 15]].reshape(-1, 1)) == b"5e-324\n1e-323\n8e-323\n"


def test_layout_edges():
    # plain notation for decimal point positions -3 to 16, exponent
    # notation outside them
    edges = [1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0, 0.001, 0.1, 1.0]
    values = with_neighbours(edges)
    assert_matches_repr(np.concatenate((values, -values)))
    assert formatted(np.array([[1e-5, 1e-4, 1e15, 1e16]])) == (
        b"1e-05,0.0001,1000000000000000.0,1e+16\n"
    )


def test_integers_and_zeros():
    rng = np.random.default_rng(53)
    big = rng.integers(-(2**53), 2**53, 10**5, endpoint=True)
    small = np.arange(-1000, 1001)
    edges = np.array([2**53, 2**53 - 1, 2**52, 10**15, 10**16 - 2, 10**16])
    values = np.concatenate((big, small, edges, -edges)).astype(float)
    assert_matches_repr(values)
    assert formatted(np.array([[0.0, -0.0]])) == b"0.0,-0.0\n"


def test_dyadic_ties():
    # few significant bits over many binades: decimal expansions that end
    # in 5 just past the digits kept, where the closer candidate is a tie
    odd = np.arange(1, 2**10, 2, dtype=float)
    values = np.ldexp(odd[:, None], np.arange(-80, 70)[None, :])
    assert_matches_repr(values)


def test_hypothesis_property():
    hypothesis = pytest.importorskip("hypothesis")
    strategies = hypothesis.strategies

    @hypothesis.given(
        strategies.lists(
            strategies.floats(allow_nan=False, allow_infinity=False), min_size=1
        )
    )
    def check(values):
        assert_matches_repr(values)

    check()


def snapshot_state(rows):
    """x and a two-component state of `rows` points; the grid carries only
    its size, since a Grid has at least 8 points."""
    rng = np.random.default_rng(rows)
    scale = np.exp(rng.uniform(-700.0, 5.0, (4, rows)))
    parts = rng.standard_normal((4, rows)) * scale
    parts[:, ::7] = 0.0
    return np.linspace(4.5, 12.0, rows), SimpleNamespace(
        grid=SimpleNamespace(n=rows), even=parts[0] + 1j * parts[1], odd=parts[2] - 1j * parts[3]
    )


@pytest.mark.parametrize(
    "rows",
    sorted({1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 1023, 1024, 1025, 2049}),
)
def test_chunk_seams_match_reference_snapshot(tmp_path, rows):
    x, state = snapshot_state(rows)
    path = tmp_path / "snapshot.csv"
    _write_snapshot(path, x, state)
    written = path.read_bytes()
    assert written == reference_snapshot(x, state)
    assert written.startswith((SNAPSHOT_HEADER + "\n").encode("utf-8"))
    assert written.count(b"\n") == rows + 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_raise(bad):
    table = np.zeros((3, 9))
    table[1, 4] = bad
    handle = io.BytesIO()
    with pytest.raises(ValueError, match="NaN or infinity"):
        write_csv_body(handle, table)
    assert handle.getvalue() == b""


def test_exponent_estimates_are_exact():
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) at an irregular
    # spacing, over every exponent of a double; the shifts h stay in
    # [2, 5], so the shifted significands stay below 2^63
    for q in range(-1074, 972):
        k = q * _shortest._LOG10_2 >> 41
        assert 10 ** Fraction(k) <= 2 ** Fraction(q) < 10 ** Fraction(k + 1)
        k = q * _shortest._LOG10_2 + _shortest._LOG10_3_4 >> 41
        three_quarters = Fraction(3, 4) * 2 ** Fraction(q)
        assert 10 ** Fraction(k) <= three_quarters < 10 ** Fraction(k + 1)
    tables = _shortest._tables()
    used = np.r_[0:2047, 2047 + 2 : 2 * 2047]
    assert np.all((tables.h[used] >= 2) & (tables.h[used] <= 5))
    k_index = tables.k_index[used]
    assert k_index.min() == 0 and k_index.max() == _shortest._K_MAX - _shortest._K_MIN
