import math
import sys

import numpy as np
import pytest

from rindlersim.cli import main
from rindlersim.coords import U_MAX, U_STAR, Acceleration, find_singularity
from rindlersim.errors import ConfigError, CoordinateDomainError, SingularityError
from rindlersim.hamiltonian import (
    COEFFICIENT_CAP,
    ULTRA_SINGULAR_MARGIN,
    _SINGULAR_BRACKET,
    bisect,
    coefficient_arrays,
    coefficients,
    coefficients_via_inversion,
    denominator,
    galileo_coefficients,
    hyperbolic_factors,
    ultra_coefficients,
    ultra_f_delta,
    ultra_f_delta_coarse,
)


def sample_positions(count=2000, lo=1.000001, hi=1000.0, exclude=0.05):
    u = np.geomspace(lo, hi, count)
    return u[np.abs(u - U_STAR) > exclude]


def test_denominator_values():
    assert denominator(1.0) == 1.0
    assert denominator(2.0) == pytest.approx(1.098135013719244, rel=1e-14)
    assert denominator(5.0) == pytest.approx(-1.5631788622395284, rel=1e-14)


def test_denominator_rejects_u_below_one():
    with pytest.raises(CoordinateDomainError):
        denominator(0.5)
    with pytest.raises(CoordinateDomainError):
        coefficients(0.99)


def test_coefficients_at_rest_are_trivial():
    point = coefficients(1.0)
    assert point.f == 1.0
    assert point.g == 0.0
    assert point.denominator == 1.0


def test_coefficient_spot_values():
    p2 = coefficients(2.0)
    assert p2.f == pytest.approx(1.1606714113192886, rel=1e-13)
    assert p2.g == pytest.approx(-0.16067141131928855, rel=1e-13)
    p5 = coefficients(5.0)
    assert p5.f == pytest.approx(0.9259257426782034, rel=1e-13)
    assert p5.g == pytest.approx(0.07407425732179657, rel=1e-13)


def test_sum_rule():
    u = sample_positions()
    f, g, _ = coefficient_arrays(u)
    assert np.max(np.abs(f + g - 1.0)) <= 1e-10


def reference_closed_forms(u):
    """(s, r, f, g, D) in the closed forms' stable, allocating order."""
    u = np.asarray(u, dtype=float)
    s = np.sqrt((u - 1.0) * (u + 1.0))
    r = np.log1p((u - 1.0) + s)
    D = u + s - u * r
    f = (u + s) * (1.0 - r / 2.0) / D
    g = -r / (2.0 * D * (u + s))
    return s, r, f, g, D


@pytest.mark.parametrize(
    "u",
    [
        3.0,
        np.float64(1.0),
        np.array(7.25),
        np.geomspace(1.0, 1e9, 4001),
        np.linspace(4.5, 12.0, 2048),
        np.linspace(1.0, 20.0, 2000).reshape(40, 50),
        np.array([]),
        np.empty((0, 3)),
    ],
    ids=["float", "float64", "0-d", "1-d-wide", "1-d-demo04", "2-d", "empty", "empty-2-d"],
)
def test_coefficient_arrays_match_the_closed_forms_bit_for_bit(u):
    s, r, f, g, D = reference_closed_forms(u)
    got = coefficient_arrays(u, eps=-math.inf) + hyperbolic_factors(u)
    for value, want in zip(got, (f, g, D, s, r)):
        assert np.shape(value) == np.shape(want)
        assert np.array_equal(value, want)


def test_coefficients_match_mpmath_over_the_whole_wedge():
    mpmath = pytest.importorskip("mpmath")
    u = np.concatenate(
        (np.geomspace(1.0 + 1e-12, 1e12, 1201), np.geomspace(1e12, 1e300, 1201)[1:])
    )
    u = u[np.abs(u - U_STAR) > 0.05]
    # some samples where 2 D (u + s) overflows and g is still normal
    assert np.any((u > 4e152) & (u < 3e153))
    f, g, _ = coefficient_arrays(u)
    with mpmath.workdps(50):
        for ui, fi, gi in zip(u.tolist(), f.tolist(), g.tolist()):
            U = mpmath.mpf(ui)
            S = mpmath.sqrt(U * U - 1)
            R = mpmath.acosh(U)
            D = U + S - U * R
            F = (U + S) * (1 - R / 2) / D
            # the form of g without s - u, which would cancel at 50 digits
            G = -R / (2 * D * (U + S))
            # f has a simple zero at u = cosh 2, where 1 - r/2 cancels and
            # no float algorithm keeps the relative error: take |f| >= 1 there
            assert abs(fi - F) <= 1e-13 * max(abs(F), 1)
            # beyond u ~ 3e153, g underflows below the normal floats
            if abs(G) >= sys.float_info.min:
                assert abs(gi - G) <= 1e-13 * abs(G)


def test_nan_positions_are_outside_the_domain():
    for mode in ("exact", "galileo"):
        with pytest.raises(CoordinateDomainError):
            coefficient_arrays([math.nan, 5.0], mode)
    with pytest.raises(CoordinateDomainError):
        coefficient_arrays(math.nan)
    with pytest.raises(CoordinateDomainError):
        hyperbolic_factors(np.array([[2.0, math.nan]]))


def test_infinite_positions_are_outside_the_domain():
    with pytest.raises(CoordinateDomainError):
        coefficient_arrays([5.0, math.inf])
    with pytest.raises(CoordinateDomainError):
        coefficients(math.inf)


def test_huge_positions_give_finite_coefficients_up_to_u_max():
    # s = sqrt((u + 1)(u - 1)) overflows from u ~ 1.3e154 and 2 D (u + s)
    # from u ~ 3.6e152; both are taken apart there, and the domain ends
    # at U_MAX, below the overflow of u*r
    u = np.array([1e153, 1e154, 1.4e154, 1e200, 1e300, U_MAX])
    for mode in ("exact", "galileo"):
        f, g, _ = coefficient_arrays(u, mode)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
    f, g, D = coefficient_arrays(u)
    assert np.all(np.isfinite(D)) and np.all(D < 0.0)
    s, r = hyperbolic_factors(u)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(r))
    assert np.allclose(s, u, rtol=1e-15)
    for bad in (2e305, 1e308):
        with pytest.raises(CoordinateDomainError):
            coefficient_arrays([5.0, bad])


def test_singular_sample_is_found_next_to_a_huge_one():
    # a sample at the root is found whatever else the array holds
    with pytest.raises(SingularityError):
        coefficient_arrays([1e200, U_STAR])


def test_product_overflow_keeps_the_bits_below_it():
    # entries whose products stay finite keep their bits when another
    # entry of the same array takes the overflow route
    u = np.geomspace(1.0, 1e12, 501)
    alone = coefficient_arrays(u) + hyperbolic_factors(u)
    mixed = coefficient_arrays(np.append(u, 1e300)) + hyperbolic_factors(np.append(u, 1e300))
    for want, got in zip(alone, mixed):
        assert np.array_equal(got[:-1], want)


def test_sign_structure():
    u = sample_positions()
    f, g, D = coefficient_arrays(u)
    left = u < U_STAR
    right = u > U_STAR
    assert np.all(D[left] > 0.0)
    assert np.all(D[right] < 0.0)
    assert np.all(g[left] < 0.0)
    assert np.all(g[right] > 0.0)


def test_asymptotic_endpoints():
    # f - 1 vanishes like sqrt((u-1)/2) towards u = 1, and like
    # 1/(2u log u) towards large u; both ends of the scan are near-trivial
    eps = 1e-6
    assert abs(coefficients(1.0 + eps).f - 1.0) <= 1.1 * math.sqrt(eps / 2.0)
    assert abs(coefficients(1.0 + eps).g) <= 1.1 * math.sqrt(eps / 2.0)
    assert abs(coefficients(1000.0).f - 1.0) <= 1e-2
    assert abs(coefficients(1000.0).g) <= 1e-2


def test_inversion_matches_closed_form():
    for u in sample_positions(400):
        a = coefficients(float(u))
        b = coefficients_via_inversion(float(u))
        scale = max(1.0, abs(a.f), abs(a.g))
        assert abs(a.f - b.f) / scale <= 1e-12
        assert abs(a.g - b.g) / scale <= 1e-12


def test_inversion_matches_componentwise_at_moderate_u():
    for u in np.geomspace(1.000001, 10.0, 200):
        if abs(u - U_STAR) < 0.05:
            continue
        a = coefficients(float(u))
        b = coefficients_via_inversion(float(u))
        assert abs(a.f - b.f) <= 1e-12 * abs(a.f)
        assert abs(a.g - b.g) <= 1e-12 * abs(a.g)


def test_inversion_near_identity():
    a = coefficients(1.0001)
    b = coefficients_via_inversion(1.0001)
    assert abs(a.f - b.f) <= 1e-10
    assert abs(a.g - b.g) <= 1e-10


def test_both_paths_blow_up_consistently_near_the_root():
    # within 1e-3 of the root neither path is singular at machine level,
    # but both must return the same large coefficients
    for u in (U_STAR - 1e-3, U_STAR + 1e-3):
        a = coefficients(u)
        b = coefficients_via_inversion(u)
        assert abs(a.f) > COEFFICIENT_CAP
        assert abs(a.f - b.f) / abs(a.f) <= 1e-9
    with pytest.raises(SingularityError):
        coefficients(U_STAR)
    with pytest.raises(SingularityError):
        coefficients_via_inversion(U_STAR)


def test_f_stays_below_the_cap_on_both_sides_of_the_singular_band():
    # build_generator has no |f| cap check: outside the singular band no
    # mode comes near COEFFICIENT_CAP, so none is needed
    a = Acceleration(1.0)
    point = find_singularity(a)
    (lo, left_hi), (right_lo, hi) = point.branch(a, 2.0), point.branch(a, 10.0)
    near = np.geomspace(1e-12, 1.0, 2000)  # distance from a band edge
    u = np.concatenate((
        np.geomspace(lo, left_hi, 2000), left_hi - near, right_lo + near,
        np.geomspace(right_lo, hi, 5000),
    ))
    f, _, _ = coefficient_arrays(u)
    assert np.max(np.abs(f)) < COEFFICIENT_CAP
    # ultra, for delta in (0, 1) outside |log(delta/2) + 4| <= its margin
    edges = [-4.0 - ULTRA_SINGULAR_MARGIN, -4.0 + ULTRA_SINGULAR_MARGIN]
    log_half = np.concatenate((
        np.linspace(-700.0, math.log(0.5) - 1e-15, 20001),
        np.nextafter(edges, [-math.inf, math.inf]),
    ))
    log_half = log_half[np.abs(log_half + 4.0) > ULTRA_SINGULAR_MARGIN]
    f = [1.0 + ultra_f_delta(2.0 * math.exp(value)) for value in log_half]
    assert np.max(np.abs(f)) < COEFFICIENT_CAP


def test_find_singularity():
    point = find_singularity(Acceleration(1.0))
    assert point.u_star == pytest.approx(3.624, abs=1e-3)
    assert point.v_star == pytest.approx(0.961, abs=1e-3)
    assert point.x_star == point.u_star
    assert denominator(point.u_star) == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("a", [0.1, 1.0, 49.0])
def test_tabulated_root_is_the_bisection_root_bit_for_bit(a):
    # U_STAR is tabulated; it must stay the float the bisection of D returns
    assert U_STAR == bisect(denominator, *_SINGULAR_BRACKET)
    assert find_singularity(Acceleration(a)).u_star == U_STAR


def test_singularity_matches_rapidity_equation():
    # independent root: 2 = theta * (1 + exp(-2 theta)), u = cosh(theta)
    theta = bisect(lambda th: th * (1.0 + math.exp(-2.0 * th)) - 2.0, 0.5, 5.0)
    point = find_singularity(Acceleration(1.0))
    assert abs(point.u_star - math.cosh(theta)) <= 1e-9
    # the same equation implies v_star = theta - 1
    assert abs(point.v_star - (theta - 1.0)) <= 1e-9


def test_bisect_needs_a_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    # a zero at either end of the bracket is the root
    assert bisect(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert bisect(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_singularity_position_scales_with_acceleration():
    p1 = find_singularity(Acceleration(1.0))
    p2 = find_singularity(Acceleration(2.0))
    assert p2.u_star == pytest.approx(p1.u_star, abs=1e-11)
    assert p2.x_star == pytest.approx(p1.u_star / 2.0, abs=1e-11)


def test_exactly_one_sign_change_on_figure_window():
    u = np.linspace(1.0, 20.0, 20001)
    D = np.array([denominator(float(val)) for val in u])
    flips = np.sum(np.sign(D[:-1]) * np.sign(D[1:]) < 0)
    assert flips == 1


def test_galileo_coefficients():
    p = galileo_coefficients(0.0)
    assert (p.f, p.g) == (1.0, 0.0)
    p = galileo_coefficients(0.1)
    assert p.f == pytest.approx(1.05, abs=1e-15)
    assert p.g == pytest.approx(-0.05, abs=1e-15)


def test_galileo_warning_and_domain(tmp_path):
    with pytest.warns(UserWarning):
        galileo_coefficients(0.15)
    # u(v) = u(-v), and the exact coefficients there belong to v >= 0
    with pytest.raises(CoordinateDomainError):
        galileo_coefficients(-0.05)
    out = str(tmp_path / "l.csv")
    assert main(["limits", "--regime", "galileo", "--values", "-0.05", "--out", out]) == 2


def test_galileo_speed_above_the_limit_is_a_config_error(tmp_path):
    # the range rule build_generator applies to a galileo window
    with pytest.raises(ConfigError, match="small-velocity limit"):
        galileo_coefficients(0.25)
    out = str(tmp_path / "l.csv")
    assert main(["limits", "--regime", "galileo", "--values", "0.25", "--out", out]) == 2


def test_galileo_limit_bound():
    for v in (0.01, 0.02, 0.05, 0.1):
        exact = coefficients(galileo_coefficients(v).u)
        assert abs(exact.f - (1.0 + v / 2.0)) <= v * v
        assert abs(exact.g + v / 2.0) <= v * v
    # spot deviation at v = 0.1
    exact = coefficients(galileo_coefficients(0.1).u)
    assert abs(exact.f - 1.05) == pytest.approx(0.0048, abs=2e-4)


def test_ultra_f_delta_values():
    assert ultra_f_delta(0.01) == pytest.approx(-0.020404554013766268, rel=1e-13)
    assert ultra_f_delta(2e-4) == pytest.approx(-1.7677e-4, abs=1e-6)
    assert ultra_f_delta_coarse(2e-4) == -1e-4


def test_ultra_coefficients_limit_is_trivial():
    p = ultra_coefficients(1e-10)
    assert p.f == pytest.approx(1.0, abs=1e-9)
    assert p.g == pytest.approx(0.0, abs=1e-9)


def test_ultra_singular_margin():
    # log(delta/2) = -4 at delta = 2 exp(-4)
    with pytest.raises(SingularityError):
        ultra_f_delta(2.0 * math.exp(-4.0))
    with pytest.raises(CoordinateDomainError):
        ultra_f_delta(0.0)


def test_ultra_deviation_shrinks_towards_the_limit():
    deviations = []
    for delta in (1e-2, 1e-3, 1e-4):
        fd = ultra_f_delta(delta)
        exact = coefficients(1.0 / math.sqrt(delta * (2.0 - delta)))
        deviations.append(abs(exact.g - (-fd)) / abs(fd))
    assert deviations[0] > deviations[1] > deviations[2]
