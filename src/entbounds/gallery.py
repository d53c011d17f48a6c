"""Named parametric state families with closed-form measure values.

The closed forms are kept next to the constructors purely as independent
oracles for tests; no bound evaluator consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qcore import MAX_QUBITS, PureState

_NORM_ATOL = 1e-10
# An amplitude spec's norm may miss 1 by this much; it is then renormalized.
_SPEC_NORM_RTOL = 1e-6


def _check_finite(family: str, **params: float) -> None:
    """Refuse a NaN or infinite parameter by name, before any arithmetic reads it."""
    for name, value in params.items():
        if not math.isfinite(float(value)):
            raise ValueError(f"{family} parameter {name} must be finite, got {value!r}")


def _check_unit_coefficients(*coefficients: float) -> None:
    """Refuse negative coefficients or ones whose squares do not sum to 1."""
    lam = np.array(coefficients, dtype=float)
    if np.any(lam < 0):
        raise ValueError("coefficients must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing sum is inf, refused below
        total = float(np.sum(lam ** 2))
    if abs(total - 1.0) > _NORM_ATOL:
        raise ValueError("coefficients must satisfy sum(l_i^2) = 1")


def gsd3(l0: float, l1: float, l2: float, l3: float, l4: float,
         phi: float = 0.0) -> PureState:
    """Three-qubit state in generalized Schmidt form.

    ``l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>`` with
    non-negative coefficients satisfying ``sum(l_i^2) = 1``.
    """
    _check_finite("gsd3", l0=l0, l1=l1, l2=l2, l3=l3, l4=l4, phi=phi)
    _check_unit_coefficients(l0, l1, l2, l3, l4)
    v = np.zeros(8, dtype=complex)
    v[0b000] = l0
    v[0b100] = l1 * np.exp(1j * phi)
    v[0b101] = l2
    v[0b110] = l3
    v[0b111] = l4
    return PureState(3, v)


def gsd3_closed_forms(l0: float, l1: float, l2: float, l3: float, l4: float,
                      phi: float = 0.0) -> dict[str, float]:
    """Exact measure values for ``gsd3`` (qubits labeled A=0, B=1, C=2).

    With the amplitude placement used by :func:`gsd3`, the coefficient l3
    multiplies the |110> component and therefore drives the A-B pair, while
    l2 (|101>) drives the A-C pair.
    """
    return {
        "C(A|BC)": 2 * l0 * math.sqrt(l2 ** 2 + l3 ** 2 + l4 ** 2),
        "C(AB)": 2 * l0 * l3,
        "C(AC)": 2 * l0 * l2,
        "Ca(AB)": 2 * l0 * math.sqrt(l3 ** 2 + l4 ** 2),
        "Ca(AC)": 2 * l0 * math.sqrt(l2 ** 2 + l4 ** 2),
    }


def wclass4(l1: float, l2: float, l3: float, l4: float) -> PureState:
    """Four-qubit generalized W-class state.

    ``l1|1000> + l2|0100> + l3|0010> + l4|0001>`` with ``sum(l_i^2) = 1``.
    """
    _check_finite("wclass4", l1=l1, l2=l2, l3=l3, l4=l4)
    _check_unit_coefficients(l1, l2, l3, l4)
    v = np.zeros(16, dtype=complex)
    v[0b1000] = l1
    v[0b0100] = l2
    v[0b0010] = l3
    v[0b0001] = l4
    return PureState(4, v)


def wclass4_closed_forms(l1: float, l2: float, l3: float,
                         l4: float) -> dict[str, float]:
    """Exact measure values for ``wclass4`` (A=0, B=1, C1=2, C2=3).

    Concurrence and its assistance version coincide on every two-qubit
    reduction of a W-class state.
    """
    return {
        "C(AB|C1C2)": 2 * math.sqrt((l1 ** 2 + l2 ** 2) * (l3 ** 2 + l4 ** 2)),
        "C(AB)": 2 * l1 * l2,
        "Ca(AB)": 2 * l1 * l2,
        "C(AC1)": 2 * l1 * l3,
        "Ca(AC1)": 2 * l1 * l3,
        "C(AC2)": 2 * l1 * l4,
        "Ca(AC2)": 2 * l1 * l4,
    }


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on ``n`` qubits."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"ghz needs 2..{MAX_QUBITS} qubits, got {n}")
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return PureState(n, v)


def w(n: int) -> PureState:
    """Equal-amplitude single-excitation state on ``n`` qubits."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"w needs 2..{MAX_QUBITS} qubits, got {n}")
    v = np.zeros(2 ** n, dtype=complex)
    for q in range(n):
        v[1 << (n - 1 - q)] = 1 / math.sqrt(n)
    return PureState(n, v)


def thm2_saturating() -> PureState:
    """(|0000> + |1001>)/sqrt(2); its AB|CD concurrence equals 1."""
    v = np.zeros(16, dtype=complex)
    v[0b0000] = v[0b1001] = 1 / math.sqrt(2)
    return PureState(4, v)


def fig3() -> PureState:
    """(|0000> + |0010> + |1011>)/sqrt(3)."""
    v = np.zeros(16, dtype=complex)
    v[0b0000] = v[0b0010] = v[0b1011] = 1 / math.sqrt(3)
    return PureState(4, v)


def cor_a() -> PureState:
    """(|000000> + |101000>)/sqrt(2); entangles qubits 0 and 2."""
    v = np.zeros(64, dtype=complex)
    v[0b000000] = v[0b101000] = 1 / math.sqrt(2)
    return PureState(6, v)


def cor_b() -> PureState:
    """(|000000> + |001100>)/sqrt(2); entangles qubits 2 and 3."""
    v = np.zeros(64, dtype=complex)
    v[0b000000] = v[0b001100] = 1 / math.sqrt(2)
    return PureState(6, v)


def _qubit_count(value: float) -> int:
    """A family's qubit-count parameter as an int, range-checked while it is
    still the number given, so a huge one is quoted as given, not expanded."""
    if not float(value).is_integer():
        raise ValueError(f"qubit count must be an integer, got {value!r}")
    if not 1 <= value <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Family:
    name: str
    builder: Callable[..., PureState]
    num_params: int
    description: str


FAMILIES: dict[str, Family] = {
    "gsd3": Family("gsd3", gsd3, 6,
                   "3-qubit generalized Schmidt form; params l0..l4, phi"),
    "wclass4": Family("wclass4", wclass4, 4,
                      "4-qubit generalized W-class state; params l1..l4"),
    "ghz": Family("ghz", lambda n: ghz(_qubit_count(n)), 1, "GHZ state; param n"),
    "w": Family("w", lambda n: w(_qubit_count(n)), 1, "W state; param n"),
    "thm2_saturating": Family("thm2_saturating", thm2_saturating, 0,
                              "(|0000>+|1001>)/sqrt(2)"),
    "fig3": Family("fig3", fig3, 0, "(|0000>+|0010>+|1011>)/sqrt(3)"),
    "cor_a": Family("cor_a", cor_a, 0, "(|000000>+|101000>)/sqrt(2)"),
    "cor_b": Family("cor_b", cor_b, 0, "(|000000>+|001100>)/sqrt(2)"),
}


def named(family: str, params: Sequence[float] = ()) -> PureState:
    """Build a gallery state by family name."""
    try:
        fam = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; known: {sorted(FAMILIES)}") from None
    if len(params) != fam.num_params:
        raise ValueError(
            f"family {family!r} takes {fam.num_params} parameters, got {len(params)}")
    return fam.builder(*params)


# The types ``json.loads`` gives numbers; bool is not among them.
_JSON_NUMBERS = frozenset({int, float})


def _spec_qubits(value) -> int:
    """A state spec's ``n``: an integer in [1, MAX_QUBITS], never a bool."""
    if type(value) is not int:
        raise ValueError(f"'n' must be an integer, got {value!r}")
    if not 1 <= value <= MAX_QUBITS:
        raise ValueError(f"'n' must be in [1, {MAX_QUBITS}], got {value}")
    return value


def _spec_numbers(obj: dict, key: str, default=None) -> tuple[float, ...]:
    """``obj[key]`` as floats; it must be an array of numbers, not bools or
    strings, and each must fit a float (JSON integers are unbounded)."""
    value = obj.get(key, default)
    if not isinstance(value, (list, tuple)) or not set(map(type, value)) <= _JSON_NUMBERS:
        raise ValueError(f"{key!r} must be an array of numbers, got {value!r}")
    try:
        return tuple(map(float, value))
    except OverflowError:
        raise ValueError(f"{key!r} holds an integer too large for a float") from None


@dataclass(frozen=True)
class StateSpec:
    """Serializable description of a pure state.

    Either raw amplitudes (``kind='amplitudes'`` with ``n``, ``re``, ``im``)
    or a named family with parameters (``kind='named'``).
    """

    kind: str
    n: int | None = None
    re: tuple[float, ...] | None = None
    im: tuple[float, ...] | None = None
    family: str | None = None
    params: tuple[float, ...] = ()

    @classmethod
    def from_dict(cls, obj: dict) -> "StateSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("state spec must be an object with a 'kind' field")
        kind = obj["kind"]
        if kind == "amplitudes":
            for key in ("n", "re", "im"):
                if key not in obj:
                    raise ValueError(f"amplitudes spec is missing {key!r}")
            return cls(kind="amplitudes", n=_spec_qubits(obj["n"]),
                       re=_spec_numbers(obj, "re"), im=_spec_numbers(obj, "im"))
        if kind == "named":
            if "family" not in obj:
                raise ValueError("named spec is missing 'family'")
            return cls(kind="named", family=str(obj["family"]),
                       params=_spec_numbers(obj, "params", ()))
        raise ValueError(f"unknown state spec kind {kind!r}")

    def build(self) -> PureState:
        """Materialize the state; near-unit amplitude vectors are renormalized."""
        if self.kind == "named":
            return named(self.family, self.params)
        n = _spec_qubits(self.n)
        if len(self.re) != len(self.im):
            raise ValueError("'re' and 'im' must have equal length")
        re, im = np.array(self.re, dtype=float), np.array(self.im, dtype=float)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("amplitudes must be finite (no NaN or infinity)")
        amps = re + 1j * im
        if amps.size != 2 ** n:
            raise ValueError(
                f"expected {2 ** n} amplitudes for n={n}, got {amps.size}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
            nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > _SPEC_NORM_RTOL:
            raise ValueError(f"amplitude norm {nrm!r} is too far from 1")
        return PureState(n, amps / nrm)
