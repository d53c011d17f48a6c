import itertools
import math

import numpy as np
import pytest

from entbounds.gallery import fig3, ghz, gsd3, w, wclass4
from entbounds.measures import (
    MeasureValue,
    _cut_measures,
    coa_two_qubit,
    concurrence_pure,
    concurrence_two_qubit,
    cren_two_qubit,
    crenoa_two_qubit,
    concurrence_from_schmidt,
    negativity,
    negativity_from_schmidt,
    negativity_pure_schmidt,
    pure_concurrence_vs_negativity_check,
)
from entbounds.qcore import (
    DensityMatrix,
    PureState,
    _schmidt_spectra,
    haar_random_pure,
    rank_from_schmidt,
    reduced_density,
    schmidt_rank,
    to_density,
)

BELL = PureState(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
EV5 = 1 / math.sqrt(5)
EX1 = gsd3(EV5, EV5, EV5, EV5, EV5)


def _random_local_unitaries(n, rng):
    us = []
    for _ in range(n):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(z)
        us.append(q)
    full = us[0]
    for u in us[1:]:
        full = np.kron(full, u)
    return full


def test_measure_value_validation():
    assert MeasureValue(-5e-11, "coa").value == 0.0
    with pytest.raises(ValueError):
        MeasureValue(0.5, "entropy")
    with pytest.raises(ValueError):
        MeasureValue(-1e-3, "concurrence")
    assert float(MeasureValue(0.25, "negativity")) == 0.25


def test_concurrence_pure_bell():
    assert abs(concurrence_pure(BELL, (0,)).value - 1.0) < 1e-12


def test_concurrence_pure_equal_coefficient_state():
    assert abs(concurrence_pure(EX1, (0,)).value - 2 * math.sqrt(3) / 5) < 1e-12


def test_concurrence_pure_wclass_cut():
    psi = wclass4(3 / 4, 1 / 2, math.sqrt(2) / 4, 1 / 4)
    assert abs(concurrence_pure(psi, (0, 1)).value - math.sqrt(39) / 8) < 1e-12


def test_concurrence_pure_complement_symmetry():
    psi = haar_random_pure(4, 2024)
    for part in [(0,), (1, 3), (0, 1, 2)]:
        comp = tuple(q for q in range(4) if q not in part)
        a = concurrence_pure(psi, part).value
        b = concurrence_pure(psi, comp).value
        assert abs(a - b) < 1e-10


def test_concurrence_two_qubit_bell_and_mixed():
    assert abs(concurrence_two_qubit(to_density(BELL)).value - 1.0) < 1e-12
    assert concurrence_two_qubit(DensityMatrix(2, np.eye(4) / 4)).value == 0.0


def test_concurrence_two_qubit_equal_coefficient_reduction():
    rho_ab = reduced_density(EX1, (0, 1))
    assert abs(concurrence_two_qubit(rho_ab).value - 2 / 5) < 1e-10


def test_concurrence_two_qubit_requires_two_qubits():
    with pytest.raises(ValueError):
        concurrence_two_qubit(DensityMatrix(1, np.eye(2) / 2))


def test_coa_equal_coefficient_reduction():
    rho_ab = reduced_density(EX1, (0, 1))
    assert abs(coa_two_qubit(rho_ab).value - 2 * math.sqrt(2) / 5) < 1e-10


def test_coa_pure_state_equals_concurrence():
    for seed in range(20):
        psi = haar_random_pure(2, 300 + seed)
        rho = to_density(psi)
        c = concurrence_two_qubit(rho).value
        ca = coa_two_qubit(rho).value
        assert abs(c - ca) < 1e-9


def test_coa_maximally_mixed():
    # I/4 is an equal mixture of the four Bell states, each of concurrence 1,
    # so the best ensemble average is 1; the mu-sum gives the same value.
    assert abs(coa_two_qubit(DensityMatrix(2, np.eye(4) / 4)).value - 1.0) < 1e-12


def test_coa_dominates_concurrence_on_reductions():
    for seed in range(200):
        psi = haar_random_pure(3, 1000 + seed)
        rho = reduced_density(psi, (0, 1))
        assert coa_two_qubit(rho).value >= concurrence_two_qubit(rho).value - 1e-10


def test_negativity_bell_and_product():
    assert abs(negativity(to_density(BELL), (0,)).value - 1.0) < 1e-12
    product = DensityMatrix(2, np.diag([1.0, 0, 0, 0]))
    assert negativity(product, (0,)).value < 1e-12


def test_negativity_schmidt_pair_cross_check():
    # Schmidt eigenvalues (2/3, 1/3) across the cut: N = 2 sqrt(2/9).
    psi = PureState(2, np.array([math.sqrt(2 / 3), 0, 0, math.sqrt(1 / 3)]))
    expected = 2 * math.sqrt(2) / 3
    assert abs(negativity(to_density(psi), (0,)).value - expected) < 1e-12
    assert abs(negativity_pure_schmidt(psi, (0,)).value - expected) < 1e-12


def test_negativity_dual_route_random():
    for seed in range(25):
        psi = haar_random_pure(3, 50 + seed)
        a = negativity(to_density(psi), (0,)).value
        b = negativity_pure_schmidt(psi, (0,)).value
        assert abs(a - b) < 1e-9


def test_negativity_pure_schmidt_trivial_cases():
    assert abs(negativity_pure_schmidt(BELL, (0,)).value - 1.0) < 1e-12
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    product = PureState(2, np.kron(plus, plus))
    assert negativity_pure_schmidt(product, (0,)).value < 1e-12


def test_cren_crenoa_delegation():
    assert abs(cren_two_qubit(to_density(BELL)).value - 1.0) < 1e-12
    assert cren_two_qubit(DensityMatrix(2, np.eye(4) / 4)).value == 0.0
    rho_ab = reduced_density(EX1, (0, 1))
    assert abs(crenoa_two_qubit(rho_ab).value - 2 * math.sqrt(2) / 5) < 1e-10
    assert cren_two_qubit(rho_ab).kind == "cren"
    assert crenoa_two_qubit(rho_ab).kind == "crenoa"


def test_concurrence_vs_negativity_bell():
    c, n = pure_concurrence_vs_negativity_check(BELL, (0,))
    assert abs(c.value - 1.0) < 1e-12
    assert abs(n.value - 1.0) < 1e-12


def test_concurrence_vs_negativity_fig3_rank2_equality():
    psi = fig3()
    c, n = pure_concurrence_vs_negativity_check(psi, (0, 1))
    expected = 2 * math.sqrt(2) / 3
    assert schmidt_rank(psi, (0, 1)) == 2
    assert abs(c.value - expected) < 1e-10
    assert abs(n.value - expected) < 1e-10


def test_negativity_strictly_above_concurrence_high_rank():
    hits = 0
    for seed in range(10):
        psi = haar_random_pure(6, 7000 + seed)
        part = (0, 1, 2)
        if schmidt_rank(psi, part) > 2:
            c, n = pure_concurrence_vs_negativity_check(psi, part)
            assert n.value > c.value + 1e-6
            hits += 1
    assert hits > 0  # Haar 3|3 cuts have rank 8 almost surely


def test_two_qubit_concurrence_matches_pure_route():
    for seed in range(20):
        psi = haar_random_pure(2, 9000 + seed)
        a = concurrence_two_qubit(to_density(psi)).value
        b = concurrence_pure(psi, (0,)).value
        assert abs(a - b) < 1e-9


def test_local_unitary_invariance():
    rng = np.random.default_rng(77)
    psi = haar_random_pure(3, 4321)
    u = _random_local_unitaries(3, rng)
    rotated = PureState(3, u @ psi.amplitudes)
    for part in [(0,), (1,), (0, 2)]:
        assert abs(concurrence_pure(psi, part).value
                   - concurrence_pure(rotated, part).value) < 1e-9
        assert abs(negativity_pure_schmidt(psi, part).value
                   - negativity_pure_schmidt(rotated, part).value) < 1e-9
    rho = reduced_density(psi, (0, 1))
    u2 = _random_local_unitaries(2, rng)
    rho_rot = DensityMatrix(2, u2 @ rho.matrix @ u2.conj().T)
    assert abs(concurrence_two_qubit(rho).value
               - concurrence_two_qubit(rho_rot).value) < 1e-9
    assert abs(coa_two_qubit(rho).value - coa_two_qubit(rho_rot).value) < 1e-9


def _padded(psi, zeros):
    """``psi`` tensored with |0...0> on ``zeros`` more qubits."""
    tail = np.zeros(2 ** zeros)
    tail[0] = 1.0
    return PureState.from_amplitudes(np.kron(psi.amplitudes, tail))


def _cut_stacks():
    """Stacks of same-size cut spectra: Haar rows, rank-deficient rows of
    padded Haar blocks, W and GHZ rows, and rows of different ranks mixed in
    one stack, at n = 3..12."""
    by_size = {}
    for n in range(3, 13):
        states = [haar_random_pure(n, 8100 + n), w(n), ghz(n)]
        states += [_padded(haar_random_pure(k, 8300 + n + k), n - k) for k in (2, n // 2)]
        rng = np.random.default_rng(8400 + n)
        for size in range(1, min(n - 1, 6) + 1):
            combos = list(itertools.combinations(range(n), size))
            for psi in states:
                for j in rng.choice(len(combos), min(3, len(combos)), replace=False):
                    by_size.setdefault(size, []).append(reduced_density(psi, combos[j]).matrix)
    return [_schmidt_spectra(matrices) for matrices in by_size.values()]


def test_stacked_cut_measures_equal_the_per_row_functions_bit_for_bit():
    # The negativity's 1-ulp reproducer: summed over the zero-padded row it
    # reads 2.6042559191474077, over the positive prefix 2.604255919147407.
    trap = reduced_density(haar_random_pure(5, 8105), (0, 1, 3)).matrix
    # A 6|6 cut at n = 12 of rank 8 < 64: a 9-qubit Haar block with |000>.
    low_rank = reduced_density(_padded(haar_random_pure(9, 8500), 3), range(6)).matrix
    stacks = _cut_stacks() + [_schmidt_spectra([trap]), _schmidt_spectra([low_rank])]
    ranks = set()
    for spectra in stacks:
        conc, neg, rank = _cut_measures(spectra)
        assert len(conc) == len(neg) == len(rank) == len(spectra)
        for lam, c, nv, r in zip(spectra, conc, neg, rank):
            assert type(c) is float and type(nv) is float and type(r) is int
            assert c.hex() == concurrence_from_schmidt(lam).value.hex()
            assert nv.hex() == negativity_from_schmidt(lam).value.hex()
            assert r == rank_from_schmidt(lam)
            ranks.add((len(lam), r))
    assert _cut_measures(stacks[-2])[1] == [2.604255919147407]
    assert _cut_measures(stacks[-1])[2] == [8]
    # Rank-deficient and rank-one rows were among those compared.
    assert any(r < d for d, r in ranks) and any(r == 1 for _, r in ranks)
