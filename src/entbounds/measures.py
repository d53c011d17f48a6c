"""Closed-form entanglement measures.

Pure-cut concurrence, the two-qubit Wootters concurrence and its assistance
counterpart, negativity in the trace-norm-minus-one convention, and the
convex-roof-extended negativity identifications that make CREN/CRENOA equal
to concurrence/COA on two-qubit states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    PureState,
    SubsystemLike,
    _PAIR_NOISE_FLOOR,
    _RANK_CUTOFF,
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


def _keep_mu_values(rhos: Sequence[DensityMatrix]) -> None:
    """Keep the mu spectrum on every two-qubit ``rho`` that has none yet.

    The spectra are the singular values of A = sqrt(rho) Y sqrt(rho)* with
    Y = sigma_y (x) sigma_y: then A A^dag = sqrt(rho) flipped sqrt(rho),
    which shares the nonzero spectrum with rho @ flipped.  The SVD yields
    the mu values directly, avoiding square roots of eigenvalue noise.  A
    row summing below ``_PAIR_NOISE_FLOOR`` is noise and reads as zeros.

    The missing spectra are solved as one (k, 4, 4) stack: one ``eigh`` and
    one ``svd``, which run the same LAPACK routine on each matrix as on a
    single one, so every row equals the spectrum of its own matrix.  Each
    row is kept, read-only, on its ``rho``: a ``DensityMatrix`` is frozen and
    its matrix is read-only, so the spectrum cannot go stale.
    """
    todo = [rho for rho in rhos if "_mu" not in vars(rho)]
    if not todo:
        return
    evals, vecs = np.linalg.eigh(np.stack([rho.matrix for rho in todo]))
    evals = np.where(evals < _RANK_CUTOFF, 0.0, evals)
    root = (vecs * np.sqrt(evals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    mu = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    mu[np.sum(mu, axis=1) < _PAIR_NOISE_FLOOR] = 0.0
    mu.flags.writeable = False
    for rho, row in zip(todo, mu):
        object.__setattr__(rho, "_mu", row)


def _mu_values(rho: DensityMatrix) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho @ spin_flip(rho).

    Returns the spectrum kept on ``rho``, first solving it as a stack of one
    with ``_keep_mu_values`` when none is kept.  The concurrence and the
    assistance of one pair share it, and ``bounds.fill_spectra`` fills it for
    every new pair of a chunk of states with one stacked ``eigh`` + ``svd``.
    """
    if "_mu" not in vars(rho):
        _keep_mu_values((rho,))
    return vars(rho)["_mu"]


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

    Reads the mu spectrum that ``_mu_values`` keeps on ``rho``, so a
    following ``coa_two_qubit(rho)`` costs no second eigensolve.  Zero when
    the mu values sum below ``_PAIR_NOISE_FLOOR``.
    """
    _require_two_qubits(rho, "concurrence_two_qubit")
    mu = _mu_values(rho)
    return MeasureValue(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]), "concurrence")


def coa_two_qubit(rho: DensityMatrix) -> MeasureValue:
    """Concurrence of assistance mu1 + mu2 + mu3 + mu4.

    This is the fidelity F(rho, spin_flip(rho)) and never falls below the
    Wootters concurrence of the same state.  It reads the same kept mu
    spectrum as ``concurrence_two_qubit``, and is zero below
    ``_PAIR_NOISE_FLOOR``.
    """
    _require_two_qubits(rho, "coa_two_qubit")
    return MeasureValue(float(np.sum(_mu_values(rho))), "coa")


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
