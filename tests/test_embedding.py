import numpy as np
import pytest

from rindlersim.embedding import (
    EnlargedSpinorField,
    Grid,
    ScalarField,
    correlation,
    embed_initial,
    enlarged_expectation,
    expectation_inertial,
    expectation_rindler,
    extract_inertial,
    extract_rindler,
    field_norm,
    inner,
    IDENTITY_2,
    PAULI_X,
)
from rindlersim.errors import ConfigError, GridMismatchError

GRID = Grid(x_min=-5.0, x_max=5.0, n=128)
# the grid observables: the multiplication by real per-sample weights
ONES = np.ones(GRID.n)
X = GRID.points()


def window_mask(grid, lo, hi):
    """Weights of the projector onto the samples with lo <= x <= hi."""
    x = grid.points()
    return ((x >= lo) & (x <= hi)).astype(float)


def gaussian(grid, x0=0.0, sigma=1.0, k0=0.0):
    x = grid.points()
    return np.exp(-((x - x0) ** 2) / (2 * sigma**2)) * np.exp(1j * k0 * x)


def random_spinor(grid, rng):
    shape = (grid.n,)
    return EnlargedSpinorField(
        grid=grid,
        even=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        odd=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )


def test_embed_initial_gaussian():
    psi0 = ScalarField(GRID, gaussian(GRID))
    state = embed_initial(psi0)
    assert np.array_equal(state.even, psi0.values)
    assert np.all(state.odd == 0.0)
    # both extractions reproduce the input at t = 0
    assert np.array_equal(extract_inertial(state).values, psi0.values)
    assert np.array_equal(extract_rindler(state).values, psi0.values)


def test_embed_initial_zero_and_nonfinite():
    zero = ScalarField(GRID, np.zeros(GRID.n, dtype=complex))
    state = embed_initial(zero)
    assert np.all(state.even == 0.0) and np.all(state.odd == 0.0)
    bad = np.zeros(GRID.n, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ConfigError):
        embed_initial(ScalarField(GRID, bad))


def test_extractions_are_sum_and_difference():
    p = gaussian(GRID, x0=1.0)
    q = gaussian(GRID, x0=-1.0, k0=2.0)
    state = EnlargedSpinorField(GRID, even=p, odd=q)
    assert np.array_equal(extract_inertial(state).values, p + q)
    assert np.array_equal(extract_rindler(state).values, p - q)
    # pure components
    only_even = EnlargedSpinorField(GRID, even=p, odd=np.zeros_like(p))
    assert np.array_equal(extract_inertial(only_even).values, p)
    assert np.array_equal(extract_rindler(only_even).values, p)
    only_odd = EnlargedSpinorField(GRID, even=np.zeros_like(q), odd=q)
    assert np.array_equal(extract_inertial(only_odd).values, q)
    assert np.array_equal(extract_rindler(only_odd).values, -q)
    # cancellation
    opposite = EnlargedSpinorField(GRID, even=p, odd=-p)
    assert np.all(extract_inertial(opposite).values == 0.0)


def test_frame_change_is_an_involution():
    rng = np.random.default_rng(3)
    state = random_spinor(GRID, rng)
    flipped = EnlargedSpinorField(GRID, even=state.even, odd=-state.odd)
    assert np.array_equal(
        extract_inertial(flipped).values, extract_rindler(state).values
    )
    twice = EnlargedSpinorField(GRID, even=flipped.even, odd=-flipped.odd)
    assert np.array_equal(extract_inertial(twice).values, extract_inertial(state).values)
    assert np.array_equal(extract_rindler(twice).values, extract_rindler(state).values)


def test_linear_map_consistency():
    # (e+o) + (e-o) = 2e and (e+o) - (e-o) = 2o, up to one rounding per add
    rng = np.random.default_rng(5)
    state = random_spinor(GRID, rng)
    total = extract_inertial(state).values + extract_rindler(state).values
    diff = extract_inertial(state).values - extract_rindler(state).values
    scale = np.max(np.abs(state.even)) + np.max(np.abs(state.odd))
    assert np.max(np.abs(total - 2.0 * state.even)) <= 4e-16 * scale
    assert np.max(np.abs(diff - 2.0 * state.odd)) <= 4e-16 * scale


def test_expectation_identity_on_pure_even():
    p = gaussian(GRID)
    state = EnlargedSpinorField(GRID, even=p, odd=np.zeros_like(p))
    value = expectation_inertial(state, ONES)
    assert value.real == pytest.approx(field_norm(p, GRID.dx) ** 2, rel=1e-13)
    assert abs(value.imag) <= 1e-14 * abs(value.real)
    # with a vanishing odd part the two frames agree
    assert expectation_rindler(state, ONES) == pytest.approx(value)


def test_position_expectation_of_centered_packet():
    p = gaussian(GRID, x0=1.25, sigma=0.4)
    state = EnlargedSpinorField(GRID, even=p, odd=np.zeros_like(p))
    pos = expectation_inertial(state, X)
    norm_sq = expectation_inertial(state, ONES)
    assert (pos / norm_sq).real == pytest.approx(1.25, abs=1e-9)


def test_rindler_expectation_squares_away_sign():
    q = gaussian(GRID, k0=1.0)
    state = EnlargedSpinorField(GRID, even=np.zeros_like(q), odd=q)
    value = expectation_rindler(state, ONES)
    assert value.real == pytest.approx(field_norm(q, GRID.dx) ** 2, rel=1e-13)


def test_correlation_trivial_cases():
    p = gaussian(GRID)
    pure_even = EnlargedSpinorField(GRID, even=p, odd=np.zeros_like(p))
    assert correlation(pure_even, ONES).real == pytest.approx(
        field_norm(p, GRID.dx) ** 2, rel=1e-13
    )
    pure_odd = EnlargedSpinorField(GRID, even=np.zeros_like(p), odd=p)
    assert correlation(pure_odd, ONES).real == pytest.approx(
        -field_norm(p, GRID.dx) ** 2, rel=1e-13
    )


@pytest.mark.parametrize("seed", range(5))
def test_bilinear_forms_match_direct_computation(seed):
    rng = np.random.default_rng(seed)
    state = random_spinor(GRID, rng)
    observables = (
        ONES,
        X,
        window_mask(GRID, -1.0, 2.5),
    )
    psi = extract_inertial(state).values
    psi_prime = extract_rindler(state).values
    dx = GRID.dx
    for obs in observables:
        scale = abs(inner(psi, obs * psi, dx)) + 1.0
        assert abs(
            expectation_inertial(state, obs) - inner(psi, obs * psi, dx)
        ) <= 1e-12 * scale
        assert abs(
            expectation_rindler(state, obs) - inner(psi_prime, obs * psi_prime, dx)
        ) <= 1e-12 * scale
        assert abs(
            correlation(state, obs) - inner(psi, obs * psi_prime, dx)
        ) <= 1e-12 * scale


def test_expectations_are_real_for_hermitian_observables():
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = random_spinor(GRID, rng)
        for obs in (
            X,
            window_mask(GRID, 0.0, 4.0),
        ):
            for form in (expectation_inertial, expectation_rindler):
                value = form(state, obs)
                assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))


def test_correlation_is_generally_complex():
    rng = np.random.default_rng(23)
    state = random_spinor(GRID, rng)
    value = correlation(state, X)
    assert abs(value.imag) > 1e-6


def test_norm_bookkeeping():
    # |psi|^2 + |psi'|^2 = 2(|psi_e|^2 + |psi_o|^2), pointwise algebra
    rng = np.random.default_rng(29)
    state = random_spinor(GRID, rng)
    dx = GRID.dx
    lhs = (
        field_norm(extract_inertial(state).values, dx) ** 2
        + field_norm(extract_rindler(state).values, dx) ** 2
    )
    rhs = 2.0 * (field_norm(state.even, dx) ** 2 + field_norm(state.odd, dx) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_grid_mismatch_is_an_error():
    other = Grid(x_min=-5.0, x_max=5.0, n=256)
    state = EnlargedSpinorField(
        GRID, even=gaussian(GRID), odd=np.zeros(GRID.n, dtype=complex)
    )
    with pytest.raises(GridMismatchError):
        expectation_inertial(state, np.ones(other.n))
    with pytest.raises(GridMismatchError):
        correlation(state, other.points())
    # one weight would broadcast over every sample
    with pytest.raises(GridMismatchError, match=r"shape \(1,\)"):
        expectation_rindler(state, np.ones(1))
    with pytest.raises(GridMismatchError):
        enlarged_expectation(state, IDENTITY_2, np.ones((1, GRID.n)))


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        Grid(1.0, 1.0, 64)
    with pytest.raises(ConfigError):
        ScalarField(GRID, np.zeros(GRID.n - 1, dtype=complex))
    # 64 samples over four doubles: the points would not be distinct
    with pytest.raises(ConfigError, match="8 ulps"):
        Grid(1.0, 1.0 + 4.0 * np.spacing(1.0), 64)
    fine = Grid(1.0, 1.0 + 64 * 16.0 * np.spacing(1.0), 64)
    assert np.all(np.diff(fine.points()) > 0.0)


def test_block_forms_reduce_to_pauli_expansion():
    # (I + sigma_x) and (I - sigma_x) sum to twice the identity block
    rng = np.random.default_rng(31)
    state = random_spinor(GRID, rng)
    obs = X
    total = expectation_inertial(state, obs) + expectation_rindler(state, obs)
    direct = 2.0 * enlarged_expectation(state, IDENTITY_2, obs)
    assert total == pytest.approx(direct, rel=1e-13)
    cross = enlarged_expectation(state, PAULI_X, obs)
    half_diff = 0.5 * (
        expectation_inertial(state, obs) - expectation_rindler(state, obs)
    )
    assert cross == pytest.approx(half_diff, rel=1e-12)
