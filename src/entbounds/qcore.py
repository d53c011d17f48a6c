"""Dense complex state/operator algebra for small multiqubit systems.

Amplitude indexing is big-endian over qubit labels: qubit 0 is the most
significant bit of the basis-state index, so ``|q0 q1 ... q_{n-1}>`` sits at
index ``sum_i q_i * 2**(n-1-i)``.  Every subsystem label used elsewhere in the
package refers to this ordering.

All values are immutable after construction (arrays are marked read-only) and
every operation is a pure function of its inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
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


def _gram_densities(stack: np.ndarray) -> list[DensityMatrix]:
    """A ``DensityMatrix`` of each matrix ``B B^dagger`` of an (S, d, d)
    stack, for blocks ``B`` of ``PureState`` amplitudes, made read-only
    without re-running the checks.

    Such a matrix is Hermitian and positive semidefinite by construction, and
    its trace is the state's squared norm, which ``PureState`` has checked.
    Its side, a power of two, gives the qubit count.  The stack is made
    read-only once, so each of its rows, which a ``DensityMatrix`` holds, is
    a read-only view with no flags call of its own.
    """
    stack.flags.writeable = False
    fields = {"num_qubits": stack.shape[-1].bit_length() - 1}
    rhos = []
    for matrix in stack:
        rho = object.__new__(DensityMatrix)
        vars(rho).update(fields, matrix=matrix)
        rhos.append(rho)
    return rhos


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| of a pure state."""
    amps = psi.amplitudes
    return _gram_densities(np.outer(amps, amps.conj())[None])[0]


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


def reduced_density(psi: PureState | Sequence[PureState], keep: SubsystemLike
                    ) -> DensityMatrix | list[DensityMatrix]:
    """Reduced state of a pure state; equals ``partial_trace(to_density(psi))``.

    Avoids forming the full projector, which matters for larger qubit counts.
    ``psi`` may also be a list or tuple of ``PureState`` of one qubit count:
    then the reduction of each onto the same ``keep`` is returned, as a list
    in order.  An empty sequence, a member that is not a ``PureState`` and
    mixed qubit counts are refused with ``ValueError``.

    It is ``_reduced_densities`` on one part, the states' amplitudes stacked
    by ``_amplitude_tensor`` (a view for one state), so one conjugate and one
    stacked matmul form every reduction, and each equals its state's lone
    reduction bit for bit; a lone state is the sequence of one.  A key that
    is not a tuple of plain ints is checked with ``_subsystem`` before
    ``_kept_axes`` reads it.
    """
    lone = not isinstance(psi, (list, tuple))
    states = (psi,) if lone else psi
    # A list of one PureState has nothing to check.
    if not lone and (len(states) != 1 or type(states[0]) is not PureState):
        if not states:
            raise ValueError("reduced_density takes at least one state")
        if not all(isinstance(s, PureState) for s in states):
            raise ValueError("reduced_density takes PureState members only")
        sizes = {s.num_qubits for s in states}
        if len(sizes) > 1:
            raise ValueError(
                f"reduced_density takes states of one qubit count, got {sorted(sizes)}")
    if type(keep) is not tuple or not all(type(q) is int for q in keep):
        keep = _subsystem(keep, states[0].num_qubits, name="keep")
    rhos = _gram_densities(_reduced_densities(((_amplitude_tensor(states), keep),)))
    return rhos[0] if lone else rhos


def _amplitude_tensor(states: Sequence[PureState]) -> np.ndarray:
    """The amplitudes of same-size states as one (S, 2, ..., 2) tensor.

    A single state's tensor is a view of its amplitudes, with no copy.
    """
    if len(states) == 1:
        amps = states[0].amplitudes
    else:
        amps = np.stack([psi.amplitudes for psi in states])
    return amps.reshape((len(states),) + (2,) * states[0].num_qubits)


@lru_cache(maxsize=8192)
def _kept_axes(num_qubits: int, keep: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The order that puts ``keep``'s qubits first in an (S, 2, ..., 2) tensor,
    and their count, checked by ``_subsystem`` once per (qubit count, key).
    A refused key raises, so it is never cached; ``keep`` holds plain ints,
    since ``True == 1`` and ``np.int64(1) == 1`` would share an entry."""
    kept = tuple(q + 1 for q in _subsystem(keep, num_qubits, name="keep"))
    return (0,) + kept + tuple(q for q in range(1, num_qubits + 1) if q not in kept), len(kept)


def _reduced_densities(parts: Sequence[tuple[np.ndarray, tuple[int, ...]]],
                       scratch: tuple[np.ndarray, np.ndarray] | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Reduced states of pure states, one batch of ``(tensor, keep)`` parts,
    as one (S, d, d) array in part order, whose rows ``_gram_densities``
    wraps.

    Each ``tensor`` has shape ``(S_i, 2, ..., 2)``: the amplitudes of S_i
    normalized states, every part of one qubit count, and each ``keep`` a
    sorted tuple of plain ints, every part of one size.  ``_kept_axes``
    reads ``keep`` unchecked: ``reduced_density`` checks its caller's key,
    and ``bounds.fill_spectra`` passes the keys of a ``_Layout`` and of
    ``_focus_pairs``.  Each part's transposed copy, which puts its kept
    qubits first, goes into its own rows of one block; then one
    ``np.conjugate`` and one stacked matmul ``B B^dagger`` form every
    reduction of the batch.  numpy runs the same BLAS call on each matrix
    of a stack as on a single one, so every reduction equals, bit for bit,
    that of its state alone.

    ``scratch``, if given, is two flat complex arrays of at least as many
    entries as the parts' tensors hold in all, that take the transposed
    copies and their conjugate.  A caller that reduces several batches
    passes them, so that a large batch does not fault in fresh pages each
    time.

    ``out``, if given, is a C-contiguous complex (S, d, d) array, such as
    a slice of a caller's stack of every key, that the matmul writes and
    that is returned; its caller makes it read-only once it is filled.
    Without it a new array is returned, read-only.
    """
    n = parts[0][0].ndim - 1
    rows = sum([len(tensor) for tensor, _ in parts])
    shape = (rows,) + (2,) * n
    block = np.empty(shape, complex) if scratch is None else scratch[0][:rows << n].reshape(shape)
    start = 0
    for tensor, keep in parts:
        axes, k = _kept_axes(n, keep)
        np.copyto(block[start:start + len(tensor)], tensor.transpose(axes))
        start += len(tensor)
    block = block.reshape(rows, 1 << k, -1)
    conj = (block.conj() if scratch is None else
            np.conjugate(block, out=scratch[1][:rows << n].reshape(block.shape)))
    stack = np.matmul(block, conj.transpose(0, 2, 1), out=out)
    if out is None:
        stack.flags.writeable = False
    return stack


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

    ``matrices`` are same-size reduced density matrices, such as the rows of
    ``bounds.fill_spectra``'s pair stack and of its one ``reduced_density``
    call per cut key, copied into one array by ``np.array`` (one C-level
    copy, where ``np.stack`` checks each matrix in Python) and solved with
    one stacked ``eigvalsh``.  numpy runs the same LAPACK routine on each
    matrix of a stack as on a single one, so every row equals the spectrum
    of its matrix solved alone.
    """
    evals = np.linalg.eigvalsh(np.array(matrices))[:, ::-1]
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


def haar_random_states(n: int, seeds: Sequence[int]) -> list[PureState]:
    """Haar-random pure states on ``n`` qubits, one per seed, in seed order;
    each is deterministic in its seed alone.

    Each seed's generator, ``np.random.default_rng(seed)``, fills its row of
    one (states x 2 x 2^n) array with one ``standard_normal`` call: the real
    parts, then the imaginary parts, the same stream as two calls of 2^n.
    The complex amplitudes of the chunk are written at once, real and
    imaginary parts, and each row is divided by its own ``np.linalg.norm``,
    so every state equals its draw alone bit for bit.  They equal
    ``re + 1j * im`` too, but for the sign of a zero, which only a normal of
    exactly 0.0 could show; at 8 qubits the formula's two ufunc calls cost
    about 5 µs more than the two writes inside a sweep.  ``PureState``'s checks run with
    its messages, the finiteness once per chunk and the norm once per row.
    The array is made read-only once, and each state holds its row as its
    amplitudes, with no copy.  The rows are indexed, not iterated: iterating
    a numpy array has a fixed cost that a chunk of one would pay twice.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    n, count = operator.index(n), len(seeds)  # a plain int, as PureState keeps it
    normals = np.empty((count, 2, 1 << n))
    for i, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=normals[i])
    amps = np.empty((count, 1 << n), complex)
    amps.real, amps.imag = normals[:, 0], normals[:, 1]
    for i in range(count):
        row = amps[i]
        row /= np.linalg.norm(row)
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite (no NaN or infinity)")
    amps.flags.writeable = False
    states = []
    for i in range(count):
        row = amps[i]
        norm_sq = np.vdot(row, row).real
        if abs(norm_sq - 1.0) > _ATOL_NORM:
            raise ValueError(f"state not normalized: |psi|^2 = {float(norm_sq)!r}")
        psi = object.__new__(PureState)
        vars(psi).update(num_qubits=n, amplitudes=row)
        states.append(psi)
    return states


def haar_random_pure(n: int, seed: int) -> PureState:
    """Haar-random pure state on ``n`` qubits, deterministic in ``seed``:
    ``haar_random_states`` on one seed.

    Amplitudes are independent standard complex Gaussians, then normalized.
    """
    return haar_random_states(n, (seed,))[0]
