"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they appear.

Criteria and tolerances are pinned here, not configurable:

 1. matrix solver agrees with the per-mode solver to 1e-10 (n = k = 257)
 2. expected-energy growth per doubling at M = 2^14 separates s = -0.6
    (< 2%) from s = -0.4 (> 10%); empirical L^2 energy per mode in
    [0.98, 1.02] over 200 seeds at M = 1000
 3. noise-free rate fits: slope >= 0.5417 - 0.15 at s1 = -1.5 and
    >= 1 - 0.15 at s1 = -3.0 (deblur setup, M_ref = 2^14)
 4. noisy seed-median normalized error at s1 = -1.5 strictly decreasing
    over {1e-2..1e-5} with final < 0.2 x initial (20 seeds)
 5. filtered-noise H^1 norm: min/max ratio median > 0.1 and every value
    above the pinch-band lower bound (kappa = 2 certificate)
 6. refinement gaps: monotone within 1e-12 along 33..257, equal to the
    tail-sum oracle to 1e-10, and < 1e-10 at the full reference size
 7. stationarity of the closed-form minimizer to 1e-8 on 100 random problems
 8. two consecutive deblur CLI runs produce byte-identical CSV outputs
"""

import time
from pathlib import Path

import numpy as np
import pytest

from tikhtorus import (
    FrequencyLattice,
    RegularizationSchedule,
    assemble,
    coords_to_field,
    deblur_operator,
    error_sweep,
    expected_sobolev_energy,
    field_to_coords,
    gamma_sweep,
    h1_divergence,
    hat_coefficients,
    low_frequency_test_functions,
    power_law_operator,
    predicted_exponent,
    sample_white_noise,
    sobolev_norm,
    solve,
    solve_discrete,
    stationarity_defect,
)
from tikhtorus.cli import main

from test_spectral import random_hermitian_field

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

DEBLUR_SCHEDULE = RegularizationSchedule(alpha0=1.0, kappa=2.5, r=1.0)
REFERENCE_BANDLIMIT = 2**14


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self) -> float:
        elapsed = self.elapsed
        assert elapsed < self.budget, f"runtime {elapsed:.1f}s exceeds budget {self.budget}s"
        return elapsed


def test_criterion_1_solver_oracle_equivalence():
    clock = _Clock(10.0)
    M = 128
    n = 2 * M + 1
    assert n == 257
    alpha = 1e-5
    problem = assemble(deblur_operator(), n, n, alpha, 1.0)
    lattice = FrequencyLattice(1, M)
    rng = np.random.default_rng(2357)
    worst = 0.0
    for _ in range(20):
        data = rng.standard_normal(n)
        matrix_route = solve_discrete(problem, data)
        spectral_route = field_to_coords(
            solve(deblur_operator(), coords_to_field(lattice, data), alpha, 1.0)
        )
        worst = max(worst, float(np.max(np.abs(matrix_route - spectral_route))))
    assert worst < 1e-10
    elapsed = clock.check()
    print(f"\nACCEPTANCE 1 PASS ({elapsed:.2f}s): matrix vs per-mode max discrepancy {worst:.2e} < 1e-10")


def test_criterion_2_white_noise_paradox():
    clock = _Clock(30.0)
    ratios = {}
    for s in (-0.6, -0.4):
        low = expected_sobolev_energy(FrequencyLattice(1, 2**14), s)
        high = expected_sobolev_energy(FrequencyLattice(1, 2**15), s)
        ratios[s] = (high - low) / low
    assert ratios[-0.6] < 0.02
    assert ratios[-0.4] > 0.10

    M = 1000
    lattice = FrequencyLattice(1, M)
    mean_ratio = float(
        np.mean(
            [
                sobolev_norm(sample_white_noise(lattice, seed), 0.0) ** 2 / (2 * M + 1)
                for seed in range(200)
            ]
        )
    )
    assert 0.98 <= mean_ratio <= 1.02
    elapsed = clock.check()
    print(
        f"\nACCEPTANCE 2 PASS ({elapsed:.2f}s): growth/doubling at 2^14: "
        f"{ratios[-0.6]:.4f} (s=-0.6) < 0.02, {ratios[-0.4]:.4f} (s=-0.4) > 0.10; "
        f"mean mode energy {mean_ratio:.4f} in [0.98, 1.02]"
    )


def test_criterion_3_rate_check_bias_term():
    clock = _Clock(60.0)
    lattice = FrequencyLattice(1, REFERENCE_BANDLIMIT)
    truth = hat_coefficients(lattice)
    deltas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    sweep = error_sweep(deblur_operator(), truth, DEBLUR_SCHEDULE, [-1.5, -3.0], deltas, [None])

    predictions = {
        s1: predicted_exponent(t=2.0, r=1.0, kappa=2.5, s=-0.6, s1=s1) for s1 in (-1.5, -3.0)
    }
    assert predictions[-1.5].predicted_exponent == pytest.approx(0.5416666666666667, abs=1e-12)
    assert predictions[-3.0].predicted_exponent == pytest.approx(1.0, abs=0)

    slopes = {s1: sweep.slopes[s1].slope for s1 in (-1.5, -3.0)}
    assert slopes[-1.5] >= 0.5416666666666667 - 0.15
    assert slopes[-3.0] >= 1.0 - 0.15
    elapsed = clock.check()
    print(
        f"\nACCEPTANCE 3 PASS ({elapsed:.2f}s): fitted slopes "
        f"{slopes[-1.5]:.3f} >= 0.392 (s1=-1.5, case_ii), "
        f"{slopes[-3.0]:.3f} >= 0.85 (s1=-3.0, case_i)"
    )


def test_criterion_4_full_noisy_convergence():
    clock = _Clock(120.0)
    lattice = FrequencyLattice(1, REFERENCE_BANDLIMIT)
    truth = hat_coefficients(lattice)
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    sweep = error_sweep(
        deblur_operator(), truth, DEBLUR_SCHEDULE, [-1.5], deltas, list(range(20))
    )
    medians = sweep.median_errors[-1.5]
    normalized = [m / medians[0] for m in medians]
    assert all(b < a for a, b in zip(normalized, normalized[1:])), normalized
    assert normalized[-1] < 0.2
    elapsed = clock.check()
    print(
        f"\nACCEPTANCE 4 PASS ({elapsed:.2f}s): seed-median normalized errors "
        f"{[f'{v:.4f}' for v in normalized]} strictly decreasing, final < 0.2"
    )


def test_criterion_5_h1_divergence_certificate():
    clock = _Clock(120.0)
    lattice = FrequencyLattice(1, REFERENCE_BANDLIMIT)
    schedule = RegularizationSchedule(alpha0=1.0, kappa=2.0, r=1.0)
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    report = h1_divergence(deblur_operator(), schedule, deltas, list(range(20)), lattice)
    assert report.median_ratio > 0.1
    violations = [row for row in report.rows if row.h1_norm_sq < row.lower_bound]
    assert not violations
    assert all(row.band_size > 0 for row in report.rows)
    elapsed = clock.check()
    print(
        f"\nACCEPTANCE 5 PASS ({elapsed:.2f}s): H^1 min/max ratio median "
        f"{report.median_ratio:.3f} > 0.1; all {len(report.rows)} values above the band lower bound"
    )


def test_criterion_6_refinement_consistency():
    clock = _Clock(30.0)
    reference = 512
    lattice = FrequencyLattice(1, reference)
    truth = hat_coefficients(lattice)
    noise = sample_white_noise(lattice, 3)
    delta = 1e-3
    phis = low_frequency_test_functions(lattice, 5)
    nested = [33, 65, 129, 257]
    full = 2 * reference + 1
    sizes = [(n, n) for n in nested + [full]]
    result = gamma_sweep(deblur_operator(), truth, noise, delta, DEBLUR_SCHEDULE, sizes, phis)

    from tikhtorus import forward

    measurement = forward(deblur_operator(), truth, delta, noise)
    u_cont = solve(deblur_operator(), measurement.data, DEBLUR_SCHEDULE.alpha(delta), 1.0)
    shells = lattice.shells()

    worst_oracle_gap = 0.0
    for row in result.rows:
        outside = shells > (row.n - 1) // 2
        oracle = -float(
            np.sum((u_cont.coefficients[outside] * dict(phis)[row.test_function_id].coefficients[outside].conj()).real)
        )
        worst_oracle_gap = max(worst_oracle_gap, abs(row.pairing_gap - oracle))
    assert worst_oracle_gap < 1e-10

    for label, _ in phis:
        gaps = [abs(row.pairing_gap) for row in result.rows if row.test_function_id == label]
        nested_gaps, full_gap = gaps[: len(nested)], gaps[-1]
        assert all(b <= a + 1e-12 for a, b in zip(nested_gaps, nested_gaps[1:]))
        assert full_gap < 1e-10
    elapsed = clock.check()
    print(
        f"\nACCEPTANCE 6 PASS ({elapsed:.2f}s): gaps monotone over n={nested}, "
        f"tail-sum oracle matched to {worst_oracle_gap:.2e}, full-size gaps < 1e-10"
    )


def test_criterion_7_variational_optimality():
    clock = _Clock(5.0)
    rng = np.random.default_rng(4242)
    worst = -np.inf
    for trial in range(100):
        M = int(rng.integers(2, 14))
        lattice = FrequencyLattice(1, M)
        m = random_hermitian_field(lattice, 5000 + trial)
        A = power_law_operator(float(rng.uniform(0.5, 3.0)))
        alpha = float(10.0 ** rng.uniform(-6, 0))
        r = float(rng.uniform(0.0, 2.0))
        u = solve(A, m, alpha, r)
        worst = max(worst, stationarity_defect(A, m, alpha, r, u, step=1e-6))
    assert worst <= 1e-8
    elapsed = clock.check()
    print(
        f"\nACCEPTANCE 7 PASS ({elapsed:.2f}s): worst single-mode functional decrease "
        f"{worst:.2e} <= 1e-8 over 100 random problems"
    )


def test_criterion_8_cli_determinism(tmp_path):
    clock = _Clock(120.0)
    out = tmp_path / "deblur"
    config = str(CONFIG_DIR / "deblur.ini")
    assert main(["deblur", "--config", config, "--out", str(out)]) == 0
    csv_names = sorted(p.name for p in out.glob("*.csv"))
    assert csv_names == ["divergence.csv", "errors.csv", "signal.csv"]
    snapshots = {name: (out / name).read_bytes() for name in csv_names}
    assert main(["deblur", "--config", config, "--out", str(out)]) == 0
    for name in csv_names:
        assert (out / name).read_bytes() == snapshots[name]
    elapsed = clock.check()
    print(
        f"\nACCEPTANCE 8 PASS ({elapsed:.2f}s): consecutive deblur runs produced "
        f"byte-identical {', '.join(csv_names)}"
    )
