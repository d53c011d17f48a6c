import itertools
import math

import numpy as np
import pytest

import entbounds.qcore as qcore
from entbounds.qcore import (
    DensityMatrix,
    InvalidSubsystemError,
    PureState,
    SubsystemSet,
    haar_random_pure,
    linear_entropy,
    partial_trace,
    partial_transpose,
    reduced_density,
    schmidt_rank,
    spin_flip,
    to_density,
)

BELL = PureState(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
FIG3 = PureState(4, np.array(
    [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]) / math.sqrt(3))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))


def test_pure_state_amplitudes_read_only():
    psi = PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_subsystem_set_validation():
    assert tuple(SubsystemSet((0, 2))) == (0, 2)
    with pytest.raises(InvalidSubsystemError):
        SubsystemSet(())
    with pytest.raises(InvalidSubsystemError):
        SubsystemSet((1, 1))
    with pytest.raises(InvalidSubsystemError):
        SubsystemSet((2, 0))


def test_to_density_basis_state():
    rho = to_density(PureState(1, np.array([1.0, 0.0])))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_to_density_bell_projector():
    rho = to_density(BELL)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho.matrix, expected)
    assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == 1


def test_to_density_equal_coefficient_schmidt_state():
    lam = 1 / math.sqrt(5)
    v = np.zeros(8, complex)
    v[[0b000, 0b100, 0b101, 0b110, 0b111]] = lam
    rho = to_density(PureState(3, v))
    assert rho.matrix.shape == (8, 8)
    assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == 1
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert np.allclose(rho.matrix, np.outer(v, v.conj()))


def test_partial_trace_bell_is_maximally_mixed():
    rho = partial_trace(to_density(BELL), keep=(0,))
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state_factorizes():
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    psi = PureState(2, np.kron(np.array([1.0, 0.0]), plus))
    rho = partial_trace(to_density(psi), keep=(1,))
    assert np.allclose(rho.matrix, np.outer(plus, plus), atol=1e-12)


def test_partial_trace_fig3_reduction():
    # Tracing out the last two qubits by hand gives diag(2/3, 0, 1/3, 0).
    rho = partial_trace(to_density(FIG3), keep=(0, 1))
    assert np.allclose(rho.matrix, np.diag([2 / 3, 0.0, 1 / 3, 0.0]), atol=1e-12)


def _every_keep(n):
    return [keep for k in range(1, n) for keep in itertools.combinations(range(n), k)]


@pytest.mark.parametrize("psi", [BELL, FIG3, PureState(5, np.eye(32)[9]),
                                 PureState(3, np.array([0.5, 0.5j, -0.5, 0, 0, 0, 0, 0.5]))])
def test_reduced_density_equals_partial_trace_bitwise(psi):
    for keep in _every_keep(psi.num_qubits):
        assert np.array_equal(reduced_density(psi, keep).matrix,
                              partial_trace(to_density(psi), keep).matrix), keep


def test_reductions_skip_the_checks_but_pass_them():
    # On dense states the two routes sum in different orders.
    psi = haar_random_pure(6, 12)
    rhos = [to_density(psi)] + [reduced_density(psi, keep) for keep in _every_keep(6)]
    for keep, rho in zip([None] + _every_keep(6), rhos):
        assert not rho.matrix.flags.writeable
        checked = DensityMatrix(rho.num_qubits, rho.matrix)
        assert np.array_equal(checked.matrix, rho.matrix) and checked.num_qubits == rho.num_qubits
        if keep is not None:
            ref = partial_trace(rhos[0], keep).matrix
            assert np.max(np.abs(rho.matrix - ref)) <= 1e-15, keep


def test_the_public_constructor_still_checks(monkeypatch):
    checked = []
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: checked.append(self))
    rho = DensityMatrix(1, np.eye(2) / 2)
    reduced_density(FIG3, (0, 1))
    to_density(BELL)
    assert len(checked) == 1 and checked[0] is rho


def test_partial_trace_rejects_bad_subsystem():
    rho = to_density(BELL)
    with pytest.raises(InvalidSubsystemError):
        partial_trace(rho, keep=(5,))
    with pytest.raises(InvalidSubsystemError):
        partial_trace(rho, keep=(0, 1))  # not a proper subset


@pytest.mark.parametrize("n,seed", [(3, 11), (4, 12), (5, 13)])
def test_partial_trace_composability(n, seed):
    psi = haar_random_pure(n, seed)
    rho = to_density(psi)
    keep_outer = tuple(range(n - 1))
    step1 = partial_trace(rho, keep=keep_outer)
    # keep qubit 0 of the reduced state == keep qubit 0 of the original
    step2 = partial_trace(step1, keep=(0,))
    direct = partial_trace(rho, keep=(0,))
    assert np.allclose(step2.matrix, direct.matrix, atol=1e-10)


def test_reduced_density_matches_partial_trace():
    psi = haar_random_pure(5, 99)
    for keep in [(0,), (1, 3), (0, 2, 4)]:
        a = reduced_density(psi, keep).matrix
        b = partial_trace(to_density(psi), keep).matrix
        assert np.allclose(a, b, atol=1e-12)


def test_partial_transpose_diagonal_state_unchanged():
    rho = DensityMatrix(2, np.diag([0.4, 0.3, 0.2, 0.1]))
    assert np.allclose(partial_transpose(rho, (0,)), rho.matrix)


def test_partial_transpose_bell_minimum_eigenvalue():
    pt = partial_transpose(to_density(BELL), (0,))
    evals = np.linalg.eigvalsh(pt)
    assert abs(evals[0] + 0.5) < 1e-12


def test_partial_transpose_involution_trace_hermiticity():
    psi = haar_random_pure(3, 5)
    rho = to_density(psi)
    for part in [(0,), (1,), (0, 2)]:
        pt = partial_transpose(rho, part)
        assert np.allclose(pt, pt.conj().T, atol=1e-12)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        # involution, applied at the tensor level since pt may be non-PSD
        twice = pt.reshape((2,) * 6).transpose(
            _swap_axes(3, part)).reshape(8, 8)
        assert np.allclose(twice, rho.matrix, atol=1e-12)


def _swap_axes(n, part):
    axes = list(range(2 * n))
    for q in part:
        axes[q], axes[n + q] = axes[n + q], axes[q]
    return axes


def test_linear_entropy_values():
    assert linear_entropy(to_density(PureState(1, np.array([1.0, 0.0])))) == 0.0
    assert abs(linear_entropy(DensityMatrix(1, np.eye(2) / 2)) - 0.5) < 1e-12
    assert abs(linear_entropy(DensityMatrix(1, np.diag([2 / 3, 1 / 3]))) - 4 / 9) < 1e-12


def test_linear_entropy_zero_only_for_pure():
    for seed in range(5):
        psi = haar_random_pure(3, seed)
        assert linear_entropy(to_density(psi)) < 1e-10
        mixed = partial_trace(to_density(psi), keep=(0,))
        assert linear_entropy(mixed) >= 0.0


def test_linear_entropy_triangle_on_pure_state_reductions():
    # |T(rho_A) - T(rho_B)| <= T(rho_AB) <= T(rho_A) + T(rho_B) whenever
    # rho_AB is the reduction of a global pure state onto disjoint blocks.
    for n, seed in [(3, 0), (3, 1), (4, 2), (4, 3)]:
        psi = haar_random_pure(n, 4200 + seed)
        rho = to_density(psi)
        qubits = range(n)
        for size_a in (1, 2):
            for block_a in itertools.combinations(qubits, size_a):
                rest = [q for q in qubits if q not in block_a]
                for size_b in (1, 2):
                    if size_b > len(rest):
                        continue
                    for block_b in itertools.combinations(rest, size_b):
                        union = sorted(block_a + block_b)
                        if len(union) == n:
                            t_ab = linear_entropy(rho)  # joint state is pure
                        else:
                            t_ab = linear_entropy(partial_trace(rho, keep=union))
                        t_a = linear_entropy(partial_trace(rho, keep=block_a))
                        t_b = linear_entropy(partial_trace(rho, keep=block_b))
                        assert t_ab <= t_a + t_b + 1e-10
                        assert t_ab >= abs(t_a - t_b) - 1e-10


def test_spin_flip_bell_fixed_point():
    rho = to_density(BELL)
    assert np.allclose(spin_flip(rho), rho.matrix, atol=1e-12)


def test_spin_flip_identity_and_basis_projector():
    assert np.allclose(spin_flip(DensityMatrix(2, np.eye(4) / 4)), np.eye(4) / 4)
    proj00 = DensityMatrix(2, np.diag([1.0, 0, 0, 0]))
    assert np.allclose(spin_flip(proj00), np.diag([0, 0, 0, 1.0]))


def test_spin_flip_wrong_dimension():
    with pytest.raises(ValueError):
        spin_flip(DensityMatrix(1, np.eye(2) / 2))


def test_spin_flip_output_psd():
    for seed in range(10):
        psi = haar_random_pure(4, 600 + seed)
        rho = partial_trace(to_density(psi), keep=(0, 1))
        evals = np.linalg.eigvalsh(spin_flip(rho))
        assert evals[0] >= -1e-9


def test_schmidt_rank_examples():
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    product = PureState(2, np.kron(plus, plus))
    assert schmidt_rank(product, (0,)) == 1
    assert schmidt_rank(BELL, (0,)) == 2
    assert schmidt_rank(FIG3, (0, 1)) == 2


def test_haar_random_pure_deterministic_and_normalized():
    a = haar_random_pure(2, 123)
    b = haar_random_pure(2, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
    c = haar_random_pure(2, 124)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_haar_random_pure_range_check():
    with pytest.raises(ValueError):
        haar_random_pure(0, 1)
    with pytest.raises(ValueError):
        haar_random_pure(13, 1)


def _drawn_alone(n, seed):
    """A Haar state's amplitudes by the formula of one state at a time."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return z / np.linalg.norm(z)


@pytest.mark.parametrize("n", range(1, 13))
def test_every_draw_equals_the_one_state_formula_byte_for_byte(n):
    """``haar_random_pure`` and chunks of 1, 16 and 17 seeds (small ones, and
    the 64-bit ones that ``sweep`` derives) give each state the bytes of its
    draw alone, as read-only amplitudes of a ``PureState``."""
    wide = np.random.SeedSequence(n).generate_state(17, np.uint64).tolist()
    for seeds in ([n], list(range(40 * n, 40 * n + 16)), wide):
        states = qcore.haar_random_states(n, seeds)
        assert len(states) == len(seeds)
        for psi, seed in zip(states, seeds):
            want = _drawn_alone(n, seed).tobytes()
            assert type(psi) is PureState and psi.num_qubits == n
            assert psi.amplitudes.dtype == complex and psi.amplitudes.shape == (2 ** n,)
            assert not psi.amplitudes.flags.writeable
            assert psi.amplitudes.tobytes() == want
            assert haar_random_pure(n, seed).amplitudes.tobytes() == want


class _Yields:
    """A generator whose every normal is ``value``, with or without ``out``."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.full(size, self.value)
        out[...] = self.value
        return out


@pytest.mark.parametrize("value,message", [
    (math.nan, "amplitudes must be finite (no NaN or infinity)"),
    (1e200, "state not normalized: |psi|^2 = 0.0"),  # the norm overflows, so z / inf is 0
])
def test_a_draw_that_fails_a_state_check_is_refused_with_its_message(monkeypatch, value,
                                                                     message):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Yields(value))
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError) as err:
        haar_random_pure(3, 1)
    assert str(err.value) == message
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError) as err:
        qcore.haar_random_states(3, [1, 2, 3])
    assert str(err.value) == message


def test_out_of_range_sizes_and_negative_seeds_are_refused():
    for n in (0, 13):
        for draw in (lambda: haar_random_pure(n, 1), lambda: qcore.haar_random_states(n, [1, 2])):
            with pytest.raises(ValueError, match=rf"^n must be in \[1, 12\], got {n}$"):
                draw()
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    for draw in (lambda: haar_random_pure(3, -1), lambda: qcore.haar_random_states(3, [1, -1])):
        with pytest.raises(ValueError) as err:
            draw()
        assert str(err.value) == str(want.value)


def test_haar_mean_reduction_purity():
    # Known average purity of a single-qubit reduction of a Haar-random
    # two-qubit pure state: (d_A + d_B) / (d_A d_B + 1) = 4/5.
    total = 0.0
    samples = 10_000
    for seed in range(samples):
        rho = reduced_density(haar_random_pure(2, seed), (0,))
        total += float(np.real(np.vdot(rho.matrix, rho.matrix)))
    assert abs(total / samples - 0.8) < 0.02


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # NaN compares false against the norm tolerance, so it must be caught
    # before that check.
    amps = np.array([bad, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        PureState(2, amps)


@pytest.mark.parametrize("keep", [(0.9,), (1.7, 2.2), 0.9, True, (True, 2), "01",
                                  ["0", "2"], (np.float64(1.0),)])
def test_subsystem_indices_must_be_integers(keep):
    from entbounds.measures import concurrence_pure

    psi = haar_random_pure(4, 5)
    with pytest.raises(InvalidSubsystemError, match="integer qubit index"):
        reduced_density(psi, keep)
    with pytest.raises(InvalidSubsystemError, match="integer qubit index"):
        concurrence_pure(psi, keep)


@pytest.mark.parametrize("indices", [(0.5, 1.5), (True, 2), ("0", "2"), (0, 1.0)])
def test_subsystem_set_indices_must_be_integers(indices):
    with pytest.raises(InvalidSubsystemError, match="integer qubit index"):
        SubsystemSet(indices)


def test_numpy_integer_subsystem_indices_are_accepted():
    psi = haar_random_pure(4, 5)
    got = reduced_density(psi, (np.int64(1), np.int32(2)))
    assert np.array_equal(got.matrix, reduced_density(psi, (1, 2)).matrix)
    assert np.array_equal(reduced_density(psi, np.int64(3)).matrix,
                          reduced_density(psi, 3).matrix)
    subsystem = SubsystemSet((np.int64(0), 1))
    assert subsystem.indices == (0, 1) and all(type(i) is int for i in subsystem)


@pytest.mark.parametrize("n, key", [
    (4, (0, True)), (4, (False, 1)), (4, (True,)), (4, (np.float64(0.0), 1)), (4, (0.0, 1.0)),
    (4, (0, 4)), (4, (3, 4)), (4, (1, 1)), (4, (0, 1, 2, 3)), (4, ()), (3, (0, 1, 2))])
def test_a_cached_axis_order_never_answers_for_a_refused_key(monkeypatch, n, key):
    # Warm the axis-order cache with every valid sorted key at every size, so
    # that each refused key above equals (or hashes as) some cached one.
    for size in range(2, 6):
        tensor = haar_random_pure(size, 40 + size).amplitudes.reshape((1,) + (2,) * size)
        for k in range(1, size):
            for kept in itertools.combinations(range(size), k):
                qcore._reduced_densities(((tensor, kept),))
    checked, qcore_subsystem = [], qcore._subsystem

    def subsystem(*args, **kwargs):
        checked.append(args[0])
        return qcore_subsystem(*args, **kwargs)

    monkeypatch.setattr(qcore, "_subsystem", subsystem)
    cached = qcore._kept_axes.cache_info().currsize
    psi = haar_random_pure(n, 7)
    with pytest.raises(InvalidSubsystemError):
        reduced_density(psi, key)
    assert len(checked) == 1 and checked[0] is key
    # A warm plain key skips the check; a numpy-integer key is checked
    # afresh and then reads the plain key's entry.  Neither adds an entry.
    checked.clear()
    assert reduced_density(psi, (0, 1)).num_qubits == 2 and checked == []
    numpy_key = (np.int64(0), np.int64(1))
    assert np.array_equal(reduced_density(psi, numpy_key).matrix,
                          reduced_density(psi, (0, 1)).matrix)
    assert checked == [numpy_key]
    assert qcore._kept_axes.cache_info().currsize == cached


def _mixed_states(n, count):
    """``count`` states of n qubits: Haar draws, with a GHZ state and a
    product state among them, so that some reductions are rank-deficient."""
    states = qcore.haar_random_states(n, range(5100 + 100 * n, 5100 + 100 * n + count))
    ghz, basis = np.zeros(1 << n), np.zeros(1 << n)
    ghz[[0, -1]] = 1 / math.sqrt(2)
    basis[(1 << n) // 3] = 1.0
    for i, amps in ((3, ghz), (7, basis)):
        if i < count:
            states[i] = PureState(n, amps)
    return states


def _list_keys(n):
    """Keys of 1-3 qubits: sorted and unsorted tuples, lists, a lone int and
    numpy integers."""
    keys = [(0,), [n - 1], np.int64(n - 1)]
    if n > 2:
        keys += [(n - 1, 0), [np.int32(1), n - 1]]
    if n > 3:
        keys += [(1, 2, n - 1), (np.int64(n - 1), 1, 0)]
    return keys


@pytest.mark.parametrize("n", range(2, 13))
def test_a_list_reduction_equals_each_lone_reduction_byte_for_byte(n):
    """``reduced_density`` of a list or tuple of states returns one
    ``DensityMatrix`` per state, in order, each equal to that state's lone
    reduction by ``tobytes`` and read-only, for chunks of 1, 16 and 17."""
    states = _mixed_states(n, 17)
    for keep in _list_keys(n):
        lone = [reduced_density(psi, keep) for psi in states]
        for chunk in (states[:1], states[:16], tuple(states)):
            rhos = reduced_density(chunk, keep)
            assert type(rhos) is list and len(rhos) == len(chunk)
            for rho, want in zip(rhos, lone):
                assert type(rho) is DensityMatrix and rho.num_qubits == want.num_qubits
                assert rho.matrix.shape == want.matrix.shape
                assert rho.matrix.tobytes() == want.matrix.tobytes(), (n, keep)
                assert not rho.matrix.flags.writeable
                with pytest.raises(ValueError):
                    rho.matrix[0, 0] = 0.0


def test_a_refused_list_reduction_names_its_fault():
    psi4, psi5 = haar_random_pure(4, 1), haar_random_pure(5, 2)
    for states in ([], ()):
        with pytest.raises(ValueError, match=r"^reduced_density takes at least one state$"):
            reduced_density(states, (0,))
    for member in (psi4.amplitudes, reduced_density(psi4, (0, 1)), None, [psi4]):
        with pytest.raises(ValueError, match=r"^reduced_density takes PureState members only$"):
            reduced_density([psi4, member], (0,))
    with pytest.raises(ValueError, match=r"^reduced_density takes states of one qubit count, "
                                         r"got \[4, 5\]$"):
        reduced_density((psi5, psi4, psi5), (0,))
    # A refused key reads as it does for a lone state.
    for keep in ((0, 4), (1, 1), (0, 1, 2, 3), (), (0.5,), (True, 2)):
        with pytest.raises(InvalidSubsystemError) as lone:
            reduced_density(psi4, keep)
        with pytest.raises(InvalidSubsystemError) as listed:
            reduced_density([psi4, psi4], keep)
        assert str(listed.value) == str(lone.value)
