"""Closed-form entanglement measures.

Pure-cut concurrence, the two-qubit Wootters concurrence and its assistance
counterpart, negativity in the trace-norm-minus-one convention, and the
convex-roof-extended negativity identifications that make CREN/CRENOA equal
to concurrence/COA on two-qubit states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    PureState,
    SubsystemLike,
    _PAIR_NOISE_FLOOR,
    _RANK_CUTOFF,
    _SCHMIDT_CUTOFF,
    _YY,
    partial_transpose,
    reduced_density,
    schmidt_eigenvalues,
    schmidt_rank,
)

_DUAL_ROUTE_ATOL = 1e-9

MEASURE_KINDS = ("concurrence", "coa", "negativity", "cren", "crenoa")


@dataclass(frozen=True)
class MeasureValue:
    """A non-negative measure value tagged with the measure it came from."""

    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        v = float(self.value)
        if v < -1e-10:
            raise ValueError(f"measure value {v!r} is negative beyond tolerance")
        object.__setattr__(self, "value", max(0.0, v))

    def __float__(self):
        return self.value


def _trusted_value(value: float, kind: str) -> MeasureValue:
    """``MeasureValue(value, kind)`` of a known non-negative float, unchecked."""
    measure = object.__new__(MeasureValue)
    vars(measure).update(value=value, kind=kind)
    return measure


def _keep_mu_values(rhos: Sequence[DensityMatrix], stack: np.ndarray | None = None) -> None:
    """Keep the mu spectrum, C and Ca on every two-qubit ``rho`` that has none yet.

    The spectra are the singular values of A = sqrt(rho) Y sqrt(rho)* with
    Y = sigma_y (x) sigma_y: then A A^dag = sqrt(rho) flipped sqrt(rho),
    which shares the nonzero spectrum with rho @ flipped.  The SVD yields
    the mu values directly, avoiding square roots of eigenvalue noise.  A
    row summing below ``_PAIR_NOISE_FLOOR`` is noise and reads as zeros.

    The missing spectra are solved as one (k, 4, 4) stack: one ``eigh`` and
    one ``svd``, which run the same LAPACK routine on each matrix as on a
    single one, so every row equals the spectrum of its own matrix.  The
    concurrence max(0, mu1 - mu2 - mu3 - mu4) and the assistance
    mu1 + mu2 + mu3 + mu4 are formed for the whole stack, as columns and
    row sums, which round as the same sums of one row do.  Each row is kept,
    read-only, on its ``rho`` as ``_mu``, with its C and Ca as floats in
    ``_c`` and ``_ca``, by one update of the rho's field dict: a
    ``DensityMatrix`` is frozen and its matrix is read-only, so none can go
    stale.

    ``stack``, if given, is the matrices of ``rhos``, none of them solved
    yet, as one array (``bounds.fill_spectra`` holds them so).
    """
    if stack is None:
        rhos = [rho for rho in rhos if "_mu" not in vars(rho)]
        if not rhos:
            return
        stack = np.stack([rho.matrix for rho in rhos])
    evals, vecs = np.linalg.eigh(stack)
    evals = np.where(evals < _RANK_CUTOFF, 0.0, evals)
    root = (vecs * np.sqrt(evals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    mu = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    mu[np.sum(mu, axis=1) < _PAIR_NOISE_FLOOR] = 0.0
    mu.flags.writeable = False
    # The mu values are non-negative, so the difference is never -0.0 and
    # ``maximum`` clips it as ``max(0.0, x)`` does.
    c = np.maximum(mu[:, 0] - mu[:, 1] - mu[:, 2] - mu[:, 3], 0.0).tolist()
    ca = mu.sum(axis=1).tolist()
    for rho, row, c_row, ca_row in zip(rhos, mu, c, ca):
        vars(rho).update(_mu=row, _c=c_row, _ca=ca_row)


def _kept_mu(rho: DensityMatrix) -> dict:
    """``rho``'s attributes, with its mu spectrum, C and Ca kept, first
    solving them as a stack of one with ``_keep_mu_values`` when none are."""
    kept = vars(rho)
    if "_mu" not in kept:
        _keep_mu_values((rho,))
    return kept


def _require_two_qubits(rho: DensityMatrix, op: str) -> None:
    if rho.num_qubits != 2:
        raise ValueError(f"{op} requires a two-qubit state, got {rho.num_qubits} qubits")


def concurrence_pure(psi: PureState, part_a: SubsystemLike) -> MeasureValue:
    """Concurrence sqrt(2 (1 - Tr rho_A^2)) of a pure state across a cut.

    Symmetric under replacing ``part_a`` by its complement.  Evaluated in the
    cross-product form 2 sqrt(sum_{i<j} l_i l_j) over the clipped Schmidt
    spectrum: a numerically rank-one cut then gives exactly zero instead of
    the ~1e-8 square root of purity round-off, which matters because callers
    raise the result to small powers.
    """
    return concurrence_from_schmidt(schmidt_eigenvalues(psi, part_a))


def concurrence_from_schmidt(lam: np.ndarray) -> MeasureValue:
    """Pure-cut concurrence from a ``schmidt_eigenvalues`` spectrum."""
    s1 = float(np.sum(lam))
    s2 = float(np.sum(lam * lam))
    return MeasureValue(np.sqrt(max(0.0, 2.0 * (s1 * s1 - s2))), "concurrence")


def concurrence_two_qubit(rho: DensityMatrix) -> MeasureValue:
    """Wootters concurrence max(0, mu1 - mu2 - mu3 - mu4).

    Reads the value that ``_keep_mu_values`` keeps on ``rho`` next to its mu
    spectrum, so a following ``coa_two_qubit(rho)`` costs no second
    eigensolve.  Zero when the mu values sum below ``_PAIR_NOISE_FLOOR``.
    The kept float is never negative or -0.0, so it is not checked again.
    """
    _require_two_qubits(rho, "concurrence_two_qubit")
    return _trusted_value(_kept_mu(rho)["_c"], "concurrence")


def coa_two_qubit(rho: DensityMatrix) -> MeasureValue:
    """Concurrence of assistance mu1 + mu2 + mu3 + mu4.

    This is the fidelity F(rho, spin_flip(rho)) and never falls below the
    Wootters concurrence of the same state.  Like ``concurrence_two_qubit``
    it reads the value kept on ``rho`` from its one mu spectrum, and is
    zero below ``_PAIR_NOISE_FLOOR``.
    """
    _require_two_qubits(rho, "coa_two_qubit")
    return _trusted_value(_kept_mu(rho)["_ca"], "coa")


def negativity(rho: DensityMatrix, part_a: SubsystemLike) -> MeasureValue:
    """Trace norm of the partial transpose minus one.

    Note the convention: this is twice the more common half-sum definition.
    """
    transposed = partial_transpose(rho, part_a)
    evals = np.linalg.eigvalsh(transposed)
    return MeasureValue(float(np.sum(np.abs(evals))) - 1.0, "negativity")


def negativity_pure_schmidt(psi: PureState, part_a: SubsystemLike) -> MeasureValue:
    """Negativity of a pure cut from its Schmidt spectrum.

    Equals ``2 * sum_{i<j} sqrt(l_i l_j)`` for Schmidt eigenvalues ``l_i``,
    and agrees with the trace-norm route on the projector.  Both sums run
    over the computed roots so a rank-one cut gives exactly zero.
    """
    return negativity_from_schmidt(schmidt_eigenvalues(psi, part_a))


def negativity_from_schmidt(lam: np.ndarray) -> MeasureValue:
    """Pure-cut negativity from a ``schmidt_eigenvalues`` spectrum."""
    roots = np.sqrt(lam[lam > 0.0])
    s = float(np.sum(roots))
    return MeasureValue(max(0.0, s * s - float(np.sum(roots * roots))),
                        "negativity")


# The thresholds that ``_cut_measures`` counts each row's entries above:
# its positive prefix, and its Schmidt rank.
_CUT_COUNTS = np.array([0.0, _SCHMIDT_CUTOFF])[:, None, None]


def _cut_measures(spectra: np.ndarray) -> tuple[list[float], list[float], list[int]]:
    """Concurrence, negativity and rank of each row of a ``_schmidt_spectra`` stack.

    Each list equals, bit for bit, ``concurrence_from_schmidt``,
    ``negativity_from_schmidt`` and ``rank_from_schmidt`` of every row.  The
    row sums are numpy's, as those functions take them, and the rest of
    each formula is the same Python float arithmetic on them, so a stack
    costs a fixed number of numpy calls.  A row's spectrum is descending and
    clipped, so its positive entries are a prefix (its entries are 0 or
    above ``_RANK_CUTOFF``), and the negativity sums exactly that prefix, as
    the per-row function does: a sum over the zero-padded row can round
    differently.  The rows are therefore summed in groups of one prefix
    length.  One comparison against both cutoffs counts each row's prefix
    length and its rank.
    """
    lengths, rank = (spectra > _CUT_COUNTS).sum(axis=2).tolist()
    s1, s2 = spectra.sum(axis=1).tolist(), (spectra * spectra).sum(axis=1).tolist()
    conc = [math.sqrt(max(0.0, 2.0 * (a * a - b))) for a, b in zip(s1, s2)]
    roots, neg = np.sqrt(spectra), [0.0] * len(lengths)
    for length in set(lengths):
        rows = [i for i, k in enumerate(lengths) if k == length]
        head = roots[rows, :length] if len(rows) < len(lengths) else roots[:, :length]
        for i, s, q in zip(rows, head.sum(axis=1).tolist(), (head * head).sum(axis=1).tolist()):
            neg[i] = max(0.0, s * s - q)
    return conc, neg, rank


def cren_two_qubit(rho: DensityMatrix) -> MeasureValue:
    """Convex-roof extended negativity; equals concurrence on two qubits."""
    _require_two_qubits(rho, "cren_two_qubit")
    return MeasureValue(concurrence_two_qubit(rho).value, "cren")


def crenoa_two_qubit(rho: DensityMatrix) -> MeasureValue:
    """CREN of assistance; equals the concurrence of assistance on two qubits."""
    _require_two_qubits(rho, "crenoa_two_qubit")
    return MeasureValue(coa_two_qubit(rho).value, "crenoa")


def pure_concurrence_vs_negativity_check(
    psi: PureState, part: SubsystemLike
) -> tuple[MeasureValue, MeasureValue]:
    """Return (concurrence, negativity) of a pure cut.

    The negativity dominates the concurrence on every pure cut, with equality
    whenever the Schmidt rank is 2.
    """
    c = concurrence_pure(psi, part)
    n = negativity_pure_schmidt(psi, part)
    if n.value < c.value - _DUAL_ROUTE_ATOL:
        raise AssertionError(
            f"negativity {n.value!r} fell below concurrence {c.value!r}")
    if schmidt_rank(psi, part) == 2 and abs(n.value - c.value) > _DUAL_ROUTE_ATOL:
        raise AssertionError(
            f"rank-2 cut should give equal measures, got C={c.value!r} N={n.value!r}")
    return c, n
