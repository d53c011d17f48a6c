"""Dense complex state/operator algebra for small multiqubit systems.

Amplitude indexing is big-endian over qubit labels: qubit 0 is the most
significant bit of the basis-state index, so ``|q0 q1 ... q_{n-1}>`` sits at
index ``sum_i q_i * 2**(n-1-i)``.  Every subsystem label used elsewhere in the
package refers to this ordering.

All values are immutable after construction (arrays are marked read-only) and
every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

MAX_QUBITS = 12

# Construction-time tolerances.
_ATOL_NORM = 1e-10
_ATOL_HERM = 1e-10
_ATOL_TRACE = 1e-10
_ATOL_PSD = 1e-9
_SCHMIDT_CUTOFF = 1e-10

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real  # sigma_y (x) sigma_y is real


class InvalidSubsystemError(ValueError):
    """Qubit indices do not name a valid subsystem of the given state."""


@dataclass(frozen=True)
class SubsystemSet:
    """Strictly increasing qubit indices naming one side of a partition."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(i if type(i) is int else qubit_index(i, None, "subsystem index")
                    for i in self.indices)
        if not idx:
            raise InvalidSubsystemError("subsystem must contain at least one qubit")
        if any(i < 0 for i in idx):
            raise InvalidSubsystemError(f"negative qubit index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidSubsystemError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


SubsystemLike = Union[SubsystemSet, Iterable[int], int]


def qubit_index(value, num_qubits: int | None, name: str) -> int:
    """``value`` as a qubit index: an int or numpy integer, never a bool, and
    below ``num_qubits`` unless that is None.

    Callers on hot paths test ``type(i) is int`` first and call this only
    for other types, so a plain int skips the call.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidSubsystemError(f"{name} must be an integer qubit index, got {value!r}")
    if num_qubits is not None and not 0 <= value < num_qubits:
        raise InvalidSubsystemError(f"{name}={value} out of range for {num_qubits} qubits")
    return int(value)


def _subsystem(part: SubsystemLike, num_qubits: int, *, proper: bool = True,
               name: str = "subsystem") -> tuple[int, ...]:
    """Normalize ``part`` to a sorted index tuple and validate it."""
    if isinstance(part, SubsystemSet):
        idx = part.indices
    else:
        try:
            members = sorted(part)
        except TypeError:  # a single index, or members that do not compare
            members = (part,)
        idx = tuple(i if type(i) is int else qubit_index(i, None, f"{name} member")
                    for i in members)
    if not idx:
        raise InvalidSubsystemError(f"{name} must contain at least one qubit")
    if len(set(idx)) != len(idx):
        raise InvalidSubsystemError(f"{name} contains duplicate indices: {idx}")
    if idx[0] < 0 or idx[-1] >= num_qubits:
        raise InvalidSubsystemError(
            f"{name} {idx} out of range for {num_qubits} qubits")
    if proper and len(idx) >= num_qubits:
        raise InvalidSubsystemError(
            f"{name} must be a proper subset of the {num_qubits} qubits")
    return idx


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = int(self.num_qubits)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n}")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2 ** n:
            raise ValueError(
                f"expected {2 ** n} amplitudes for {n} qubits, got {amps.size}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite (no NaN or infinity)")
        norm_sq = float(np.real(np.vdot(amps, amps)))
        if abs(norm_sq - 1.0) > _ATOL_NORM:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes, *, normalize: bool = False) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(round(np.log2(amps.size)))
        if 2 ** n != amps.size:
            raise ValueError(f"amplitude length {amps.size} is not a power of two")
        if normalize:
            nrm = np.linalg.norm(amps)
            if nrm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / nrm
        return cls(n, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator on ``num_qubits``."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = int(self.num_qubits)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n}")
        d = 2 ** n
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > _ATOL_HERM:
            raise ValueError("matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _ATOL_TRACE:
            raise ValueError(f"trace must be 1, got {tr!r}")
        if float(np.linalg.eigvalsh(mat)[0]) < -_ATOL_PSD:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        mat.flags.writeable = False
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "matrix", mat)


def _gram_density(num_qubits: int, matrix: np.ndarray) -> DensityMatrix:
    """``DensityMatrix`` of ``matrix = B B^dagger`` for a block ``B`` of a
    ``PureState``'s amplitudes, made read-only without re-running the checks.

    Such a matrix is Hermitian and positive semidefinite by construction, and
    its trace is the state's squared norm, which ``PureState`` has checked.
    """
    matrix.flags.writeable = False
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "num_qubits", num_qubits)
    object.__setattr__(rho, "matrix", matrix)
    return rho


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| of a pure state."""
    amps = psi.amplitudes
    return _gram_density(psi.num_qubits, np.outer(amps, amps.conj()))


def partial_trace(rho: DensityMatrix, keep: SubsystemLike) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    The result acts on the kept qubits in increasing original order: kept
    qubit ``keep[i]`` becomes qubit ``i`` of the reduced state.
    """
    n = rho.num_qubits
    keep_idx = _subsystem(keep, n, name="keep")
    traced = sorted(set(range(n)) - set(keep_idx), reverse=True)
    tensor = rho.matrix.reshape((2,) * (2 * n))
    alive = n
    for q in traced:
        tensor = np.trace(tensor, axis1=q, axis2=q + alive)
        alive -= 1
    d = 2 ** len(keep_idx)
    return DensityMatrix(len(keep_idx), tensor.reshape(d, d))


def reduced_density(psi: PureState, keep: SubsystemLike) -> DensityMatrix:
    """Reduced state of a pure state; equals ``partial_trace(to_density(psi))``.

    Avoids forming the full projector, which matters for larger qubit counts.
    It is ``_reduced_densities`` on a stack of one, a view of the amplitudes,
    so a reduction made alone equals its row of any stack bit for bit.
    """
    return _reduced_densities(psi.amplitudes.reshape((1,) + (2,) * psi.num_qubits), keep)[0]


def _amplitude_tensor(states: Sequence[PureState]) -> np.ndarray:
    """The amplitudes of same-size states as one (S, 2, ..., 2) tensor.

    A single state's tensor is a view of its amplitudes, with no copy.
    """
    if len(states) == 1:
        amps = states[0].amplitudes
    else:
        amps = np.stack([psi.amplitudes for psi in states])
    return amps.reshape((len(states),) + (2,) * states[0].num_qubits)


def _reduced_densities(tensor: np.ndarray, keep: SubsystemLike,
                       scratch: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> list[DensityMatrix]:
    """Reduced state onto ``keep`` of each pure state in a stack.

    ``tensor`` has shape ``(S, 2, ..., 2)``: the amplitudes of S states of
    one qubit count, each normalized.  One transposed copy puts the kept
    qubits first, and one stacked matmul ``B B^dagger`` forms every
    reduction.  numpy runs the same BLAS call on each matrix of a stack as
    on a single one, so every reduction equals, bit for bit, that of its
    state alone.

    ``scratch``, if given, is two C-contiguous complex arrays of the shape
    of ``tensor`` that take the transposed copy and its conjugate.  A
    caller that reduces several keys of one stack passes them, so that a
    large stack does not fault in fresh pages for every key.
    """
    n = tensor.ndim - 1
    keep_idx = _subsystem(keep, n, name="keep")
    kept = tuple(q + 1 for q in keep_idx)
    axes = (0,) + kept + tuple(q for q in range(1, n + 1) if q not in kept)
    shape = (len(tensor), 2 ** len(kept), -1)
    if scratch is None:
        block = tensor.transpose(axes).reshape(shape)
        conj = block.conj()
    else:
        np.copyto(scratch[0], tensor.transpose(axes))
        block = scratch[0].reshape(shape)
        conj = np.conjugate(block, out=scratch[1].reshape(shape))
    stack = block @ conj.transpose(0, 2, 1)
    return [_gram_density(len(kept), stack[i]) for i in range(len(stack))]


def partial_transpose(rho: DensityMatrix, part: SubsystemLike) -> np.ndarray:
    """Transpose the indices of the qubits in ``part``.

    Returns a Hermitian matrix that is generally not positive semidefinite;
    applying the operation twice restores the input.
    """
    n = rho.num_qubits
    part_idx = _subsystem(part, n, proper=False, name="part")
    tensor = rho.matrix.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in part_idx:
        axes[q], axes[n + q] = axes[n + q], axes[q]
    d = 2 ** n
    return np.ascontiguousarray(tensor.transpose(axes).reshape(d, d))


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2); zero exactly when the state is pure."""
    purity = float(np.real(np.vdot(rho.matrix, rho.matrix)))
    return max(0.0, 1.0 - purity)


def spin_flip(rho: DensityMatrix) -> np.ndarray:
    """Two-qubit spin-flipped operator (sy (x) sy) rho* (sy (x) sy)."""
    if rho.num_qubits != 2:
        raise ValueError("spin_flip is defined for two-qubit states only")
    return _YY @ rho.matrix.conj() @ _YY


# Eigenvalues of a unit-trace state below this are exact zeros for all
# practical inputs.  Taking square roots of eigensolver noise would otherwise
# inflate ~1e-16 errors to ~1e-8 and break the 1e-9 cross-route guarantees.
# ``measures`` zeroes the two-qubit spectra with the same cutoff.
_RANK_CUTOFF = 1e-13

# A two-qubit spectrum whose mu values sum below this is eigensolver noise:
# pairs with a qubit in a product state give sums up to ~3e-15 instead of 0,
# and ``**`` at small exponents would raise that noise to O(1).  Genuine
# values on Haar states start near 0.17.  It is kept far below
# sqrt(_RANK_CUTOFF), since zeroing a genuine small value would lower an
# upper bound's right-hand side.
_PAIR_NOISE_FLOOR = 1e-12


def _schmidt_spectra(matrices) -> np.ndarray:
    """Descending eigenvalues, clipped at 0, of each reduction in a stack.

    ``matrices`` are same-size reduced density matrices, solved with one
    stacked ``eigvalsh``.  numpy runs the same LAPACK routine on each matrix
    of a stack as on a single one, so every row equals the spectrum of its
    matrix solved alone.
    """
    evals = np.linalg.eigvalsh(np.stack(matrices))[:, ::-1]
    return np.where(evals < _RANK_CUTOFF, 0.0, evals)


def schmidt_eigenvalues(psi: PureState, part: SubsystemLike) -> np.ndarray:
    """Descending eigenvalues of the reduction onto ``part`` (clipped at 0)."""
    return _schmidt_spectra((reduced_density(psi, part).matrix,))[0]


def rank_from_schmidt(evals: np.ndarray) -> int:
    """Number of entries of a ``schmidt_eigenvalues`` spectrum above cutoff."""
    return int(np.count_nonzero(evals > _SCHMIDT_CUTOFF))


def schmidt_rank(psi: PureState, part: SubsystemLike) -> int:
    """Number of Schmidt coefficients above cutoff across the given cut."""
    return rank_from_schmidt(schmidt_eigenvalues(psi, part))


def haar_random_pure(n: int, seed: int) -> PureState:
    """Haar-random pure state on ``n`` qubits, deterministic in ``seed``.

    Amplitudes are independent standard complex Gaussians, then normalized.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PureState(n, z / np.linalg.norm(z))
