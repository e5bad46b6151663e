"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest perfbench

None of these import ``coolsign``: the references must stand on the
protocol definitions alone.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import checks
import reference as ref


def brute_force_alpha_ac(n: int, alpha: Fraction) -> Fraction:
    p, q = (1 + alpha) / 2, (1 - alpha) / 2
    pops = sorted(
        (math.prod(q if bit else p for bit in bits)
         for bits in itertools.product((0, 1), repeat=n)),
        reverse=alpha >= 0,
    )
    half = len(pops) // 2
    return sum(pops[:half]) - sum(pops[half:])


def test_alpha_ac_spot_value():
    assert ref.alpha_ac_sorted(3, 0.5) == Fraction(11, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [Fraction(3, 10), Fraction(-7, 10), Fraction(1, 3), Fraction(0)])
def test_alpha_ac_matches_a_full_sort(n, alpha):
    assert ref.alpha_ac_sorted(n, alpha) == brute_force_alpha_ac(n, alpha)


def test_alpha_ac_is_odd_and_amplifies():
    for n in (3, 4, 11, 21):
        for alpha in (0.01, 0.37, 0.99):
            up, down = ref.alpha_ac_sorted(n, alpha), ref.alpha_ac_sorted(n, -alpha)
            assert down == -up
            assert up >= Fraction(alpha)


@pytest.mark.parametrize("locality", ["full", "3local"])
def test_compression_is_a_permutation(locality):
    for n in range(3, 10):
        image = ref.compression_image(n, locality)
        assert sorted(image) == list(range(1 << n))


def test_three_qubit_compression_swaps_011_and_100():
    for locality in ("full", "3local"):
        image = ref.compression_image(3, locality)
        assert list(image) == [0, 1, 2, 4, 3, 5, 6, 7]


def test_full_staircase_is_an_involution():
    for n in range(3, 10):
        image = ref.compression_image(n, "full")
        assert np.array_equal(image[image], np.arange(1 << n))


def test_three_local_windows_act_from_the_end_of_the_string():
    # |0011> -> window on the last three qubits (011 -> 100) gives |0100>;
    # the next window up then reads 010 and leaves it alone
    image = ref.compression_image(4, "3local")
    assert image[0b0011] == 0b0100
    # |0110>: the last window reads 110 (no swap), the upper one 011 -> 100
    assert image[0b0110] == 0b1000


@pytest.mark.parametrize("n,m,rounds,locality", [(5, 2, 3, "full"), (6, 2, 4, "3local"),
                                                  (6, 1, 2, "full")])
def test_cycle_maps_are_column_stochastic(n, m, rounds, locality):
    for alpha in (0.3, -0.8):
        for matrix in ref.cycle_maps(n, m, rounds, alpha, locality):
            assert np.all(matrix >= 0)
            np.testing.assert_allclose(matrix.sum(axis=0), 1.0, rtol=0, atol=1e-14)


def test_gth_matches_a_dense_solve():
    rng = np.random.default_rng(5)
    for d in (2, 5, 16, 40):
        matrix = rng.random((d, d))
        matrix /= matrix.sum(axis=0)
        pi = ref.stationary_gth(matrix)
        system = np.vstack([matrix - np.eye(d), np.ones(d)])
        dense, *_ = np.linalg.lstsq(system, np.r_[np.zeros(d), 1.0], rcond=None)
        np.testing.assert_allclose(pi, dense, rtol=1e-11, atol=0)
        np.testing.assert_allclose(matrix @ pi, pi, rtol=1e-12, atol=0)


def test_steady_state_matches_a_long_power_iteration():
    rounds_map, cycle_map = ref.cycle_maps(5, 2, 3, 0.6)
    vec = ref.qubit_probs(0.6, 3)
    for _ in range(500):
        vec = cycle_map @ vec
        vec /= vec.sum()
    evolved = rounds_map @ vec
    ground, excited = ref.steady_masses(5, 2, 3, 0.6)
    assert ground == pytest.approx(evolved[:4].sum(), rel=1e-13)
    assert excited == pytest.approx(evolved[4:].sum(), rel=1e-11)


@pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (6, 3)])
def test_many_rounds_reach_the_heat_bath_limit(n, m):
    for alpha in (0.2, -0.5):
        cooled = ref.steady_polarization(n, m, 300, alpha)
        assert cooled == pytest.approx(ref.cooling_limit(n, m, alpha), abs=1e-8)


@pytest.mark.parametrize("n,fib", [(4, 3), (5, 5), (6, 8)])
def test_many_three_local_rounds_reach_the_fibonacci_limit(n, fib):
    cooled = ref.steady_polarization(n, 2, 400, 0.3, "3local")
    assert cooled == pytest.approx(math.tanh(fib * math.atanh(0.3)), abs=1e-12)


def test_steady_state_is_odd_in_alpha():
    for alpha in (0.1, 0.9):
        up = ref.steady_polarization(6, 2, 3, alpha)
        assert ref.steady_polarization(6, 2, 3, -alpha) == pytest.approx(-up, rel=1e-13)


def test_cooling_limit_spot_value():
    assert ref.cooling_limit(3, 2, 0.5) == pytest.approx(0.8, rel=1e-15)


def exact_wrong_sign(alpha: Fraction, k: int) -> Fraction:
    p, q = (1 + abs(alpha)) / 2, (1 - abs(alpha)) / 2
    total = sum(math.comb(k, s) * p**s * q ** (k - s) for s in range((k - 1) // 2 + 1))
    if k % 2 == 0:
        total += Fraction(1, 2) * math.comb(k, k // 2) * (p * q) ** (k // 2)
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 10, 25, 101])
@pytest.mark.parametrize("alpha", [0.2, -0.5, 0.03])
def test_binomial_tail_matches_exact_sum(k, alpha):
    want = exact_wrong_sign(Fraction(alpha), k)
    assert float(ref.wrong_sign_probability(alpha, k)) == pytest.approx(float(want), rel=1e-15)


def test_binomial_tail_at_zero_polarization():
    assert ref.wrong_sign_probability(0.0, 10) == 0.5


def test_single_shot_reduction_matches_the_erf_form():
    for n, alpha in ((5, 0.3), (21, 0.1), (10, 0.5)):
        xi = n * alpha / math.sqrt(2 * n * (1 - alpha * alpha))
        want = (alpha**-2 - 1) / (math.erf(xi) ** -2 - 1) / n
        assert ref.single_shot_reduction(n, alpha) == pytest.approx(want, rel=1e-12)


def _write(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [
        ",".join(format(v, ".17g") for v in row) for row in rows]) + "\n")


def test_polarization_check_accepts_the_reference_and_rejects_a_perturbation(tmp_path):
    grid, rounds = [-0.5, 0.5], (3, 4)
    header = ["alpha", "rounds3", "rounds4", "baseline", "asymptotic"]
    rows = [[a] + [ref.steady_polarization(5, 2, r, a) for r in rounds]
            + [a, ref.cooling_limit(5, 2, a)] for a in grid]
    rows[0][1:] = [-v for v in rows[1][1:]]  # exact oddness, as the program writes it
    path = tmp_path / "fig.csv"
    _write(path, header, rows)
    checks.bqr_polarization(str(path), grid, 5, 2, rounds)
    rows[1][2] *= 1 + 1e-5
    _write(path, header, rows)
    with pytest.raises(checks.CheckFailed):
        checks.bqr_polarization(str(path), grid, 5, 2, rounds)


def test_reduction_check_rejects_a_bound_below_the_protocol(tmp_path):
    alpha = 0.5
    value = ref.steady_reduction(5, 2, 3, alpha)
    header = ["alpha", "rounds3", "single_shot_n5", "optimal_bound_rounds3", "baseline"]
    row = [alpha, value, ref.single_shot_reduction(5, alpha), value * 2, 1.0]
    path = tmp_path / "fig.csv"
    _write(path, header, [row])
    checks.bqr_reduction(str(path), [alpha], 5, 2, (3,), "full")
    row[3] = value * 0.99
    _write(path, header, [row])
    with pytest.raises(checks.CheckFailed, match="optimal_bound"):
        checks.bqr_reduction(str(path), [alpha], 5, 2, (3,), "full")


def test_reduction_check_returns_misses_only_in_declared_cells(tmp_path):
    alphas = [0.5, 0.6]
    header = ["alpha", "rounds3", "single_shot_n5", "optimal_bound_rounds3", "baseline"]
    rows = [[a, ref.steady_reduction(5, 2, 3, a), ref.single_shot_reduction(5, a),
             2 * ref.steady_reduction(5, 2, 3, a), 1.0] for a in alphas]
    rows[1][1] *= 1 - 1e-5
    path = tmp_path / "fig.csv"
    _write(path, header, rows)
    declared = lambda column, alpha: column == "rounds3" and alpha > 0.55  # noqa: E731
    missed = checks.bqr_reduction(str(path), alphas, 5, 2, (3,), "full", declared)
    assert len(missed) == 1 and "alpha=0.6" in missed[0]
    with pytest.raises(checks.CheckFailed, match="rounds3 at alpha=0.6"):
        checks.bqr_reduction(str(path), alphas, 5, 2, (3,), "full")
    # a declared cell does not hide a miss in another cell of the same output
    rows[0][1] *= 1 + 1e-5
    _write(path, header, rows)
    with pytest.raises(checks.CheckFailed, match="rounds3 at alpha=0.5"):
        checks.bqr_reduction(str(path), alphas, 5, 2, (3,), "full", declared)


def test_polarization_check_holds_the_tighter_tolerance(tmp_path):
    grid, rounds = [0.5], (3,)
    header = ["alpha", "rounds3", "baseline", "asymptotic"]
    row = [0.5, ref.steady_polarization(5, 2, 3, 0.5) * (1 + 1e-8), 0.5,
           ref.cooling_limit(5, 2, 0.5)]
    path = tmp_path / "fig.csv"
    _write(path, header, [row])
    with pytest.raises(checks.CheckFailed, match="rtol 1e-09"):
        checks.bqr_polarization(str(path), grid, 5, 2, rounds)
