import math
import warnings

import numpy as np
import pytest

from entbounds.gallery import (
    FAMILIES,
    StateSpec,
    cor_a,
    cor_b,
    fig3,
    ghz,
    gsd3,
    gsd3_closed_forms,
    named,
    thm2_saturating,
    w,
    wclass4,
    wclass4_closed_forms,
)
from entbounds.measures import (
    coa_two_qubit,
    concurrence_pure,
    concurrence_two_qubit,
)
from entbounds.qcore import reduced_density


def _random_simplex(rng, k):
    x = rng.random(k) + 1e-3
    return np.sqrt(x / x.sum())


def test_gsd3_equal_coefficients():
    lam = 1 / math.sqrt(5)
    psi = gsd3(lam, lam, lam, lam, lam)
    assert abs(concurrence_pure(psi, (0,)).value - 2 * math.sqrt(3) / 5) < 1e-12


def test_gsd3_zero_head_coefficient_is_product_for_first_qubit():
    lam = _random_simplex(np.random.default_rng(5), 4)
    psi = gsd3(0.0, *lam)
    forms = gsd3_closed_forms(0.0, *lam)
    assert all(abs(v) < 1e-12 for v in forms.values())
    assert concurrence_pure(psi, (0,)).value < 1e-10


def test_gsd3_closed_forms_match_numeric():
    rng = np.random.default_rng(42)
    for _ in range(100):
        lam = _random_simplex(rng, 5)
        phi = float(rng.uniform(0, 2 * math.pi))
        psi = gsd3(*lam, phi)
        forms = gsd3_closed_forms(*lam, phi)
        rho_ab = reduced_density(psi, (0, 1))
        rho_ac = reduced_density(psi, (0, 2))
        assert abs(concurrence_pure(psi, (0,)).value - forms["C(A|BC)"]) < 1e-9
        assert abs(concurrence_two_qubit(rho_ab).value - forms["C(AB)"]) < 1e-9
        assert abs(concurrence_two_qubit(rho_ac).value - forms["C(AC)"]) < 1e-9
        assert abs(coa_two_qubit(rho_ab).value - forms["Ca(AB)"]) < 1e-9
        assert abs(coa_two_qubit(rho_ac).value - forms["Ca(AC)"]) < 1e-9


def test_gsd3_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        gsd3(1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gsd3(-0.5, 0.5, 0.5, 0.5, 0.0)


def test_wclass4_reference_values():
    psi = wclass4(3 / 4, 1 / 2, math.sqrt(2) / 4, 1 / 4)
    assert abs(concurrence_pure(psi, (0, 1)).value - math.sqrt(39) / 8) < 1e-12


def test_wclass4_separable_cut():
    psi = wclass4(math.sqrt(0.6), math.sqrt(0.4), 0.0, 0.0)
    assert concurrence_pure(psi, (0, 1)).value < 1e-10


def test_wclass4_closed_forms_match_numeric():
    rng = np.random.default_rng(43)
    for _ in range(100):
        lam = _random_simplex(rng, 4)
        psi = wclass4(*lam)
        forms = wclass4_closed_forms(*lam)
        assert abs(concurrence_pure(psi, (0, 1)).value - forms["C(AB|C1C2)"]) < 1e-9
        for pair, key in [((0, 1), "AB"), ((0, 2), "AC1"), ((0, 3), "AC2")]:
            rho = reduced_density(psi, pair)
            assert abs(concurrence_two_qubit(rho).value - forms[f"C({key})"]) < 1e-9
            assert abs(coa_two_qubit(rho).value - forms[f"Ca({key})"]) < 1e-9


def test_named_states():
    assert abs(concurrence_pure(ghz(3), (0,)).value - 1.0) < 1e-12
    assert abs(concurrence_pure(thm2_saturating(), (0, 1)).value - 1.0) < 1e-12
    # cor_a entangles qubits 0 and 2: unit concurrence across any cut that
    # separates them, exactly zero across the (0,1,2) cut that keeps them
    # together (rank-one cuts must not leave noise that small powers amplify)
    assert abs(concurrence_pure(cor_a(), (0, 1, 3)).value - 1.0) < 1e-12
    assert concurrence_pure(cor_a(), (0, 1, 2)).value == 0.0
    # cor_b entangles qubits 2 and 3, which straddle the (0,1,2) cut.
    assert abs(concurrence_pure(cor_b(), (0, 1, 2)).value - 1.0) < 1e-12
    assert abs(concurrence_pure(fig3(), (0, 1)).value - 2 * math.sqrt(2) / 3) < 1e-12


def test_w_state_reference():
    psi = w(3)
    assert abs(concurrence_pure(psi, (0,)).value ** 2 - 8 / 9) < 1e-12
    rho = reduced_density(psi, (0, 1))
    assert abs(concurrence_two_qubit(rho).value - 2 / 3) < 1e-10


def test_named_dispatch_and_errors():
    assert named("ghz", (3,)).num_qubits == 3
    with pytest.raises(ValueError):
        named("bell_tower")
    with pytest.raises(ValueError):
        named("gsd3", (0.5, 0.5))  # wrong parameter count
    assert set(FAMILIES) == {"gsd3", "wclass4", "ghz", "w", "thm2_saturating",
                             "fig3", "cor_a", "cor_b"}


def test_state_spec_amplitudes_roundtrip():
    spec = StateSpec.from_dict({
        "kind": "amplitudes", "n": 1,
        "re": [1 / math.sqrt(2), 1 / math.sqrt(2)], "im": [0.0, 0.0]})
    psi = spec.build()
    assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12


def test_state_spec_renormalizes_small_drift():
    drift = 1 + 5e-7
    spec = StateSpec.from_dict({
        "kind": "amplitudes", "n": 1, "re": [drift, 0.0], "im": [0.0, 0.0]})
    psi = spec.build()
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_state_spec_rejects_large_drift():
    spec = StateSpec.from_dict({
        "kind": "amplitudes", "n": 1, "re": [1.1, 0.0], "im": [0.0, 0.0]})
    with pytest.raises(ValueError):
        spec.build()


def test_state_spec_named():
    spec = StateSpec.from_dict({"kind": "named", "family": "fig3"})
    assert spec.build().num_qubits == 4


def test_state_spec_rejects_malformed():
    with pytest.raises(ValueError):
        StateSpec.from_dict({"kind": "frequencies"})
    with pytest.raises(ValueError):
        StateSpec.from_dict({"kind": "amplitudes", "n": 1, "re": [1, 0]})
    with pytest.raises(ValueError):
        StateSpec.from_dict({"kind": "named"})
    with pytest.raises(ValueError):
        StateSpec.from_dict([1, 2, 3])


@pytest.mark.parametrize("family", ["ghz", "w"])
@pytest.mark.parametrize("size", [2.7, 3.5, math.nan, math.inf])
def test_named_rejects_non_integer_sizes(family, size):
    with pytest.raises(ValueError, match="integer"):
        named(family, (size,))


def test_named_accepts_integral_float_sizes():
    assert named("ghz", (3.0,)).num_qubits == 3


@pytest.mark.parametrize("family", ["ghz", "w"])
@pytest.mark.parametrize("size, shown", [(1e308, "1e+308"), (13.0, "13.0"), (0.0, "0.0"),
                                         (-3.0, "-3.0")])
def test_named_quotes_an_out_of_range_size_as_given(family, size, shown):
    # An integral 1e308 used to be expanded by int() into a 309-digit message.
    spec = StateSpec.from_dict({"kind": "named", "family": family, "params": [size]})
    for build in (lambda: named(family, (size,)), spec.build):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"qubit count must be in [1, 12], got {shown}"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_state_spec_rejects_non_finite_amplitudes(bad):
    spec = StateSpec.from_dict({"kind": "amplitudes", "n": 1,
                                "re": [bad, 0.0], "im": [0.0, 0.0]})
    with pytest.raises(ValueError, match="finite"):
        spec.build()


@pytest.mark.parametrize("obj", [
    {"kind": "amplitudes", "n": 2.5, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
    {"kind": "amplitudes", "n": True, "re": [1, 0], "im": [0, 0]},
    {"kind": "amplitudes", "n": "2", "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
    {"kind": "amplitudes", "n": 0, "re": [1], "im": [0]},
    {"kind": "amplitudes", "n": 13, "re": [1, 0], "im": [0, 0]},
])
def test_state_spec_rejects_bad_qubit_count(obj):
    with pytest.raises(ValueError, match="'n'"):
        StateSpec.from_dict(obj).build()


def test_state_spec_build_checks_qubit_count_first():
    spec = StateSpec("amplitudes", n=64, re=(1.0, 0.0), im=(0.0, 0.0))
    with pytest.raises(ValueError, match="'n'"):
        spec.build()


@pytest.mark.parametrize("obj", [
    {"kind": "amplitudes", "n": 2, "re": "1000", "im": "0000"},
    {"kind": "amplitudes", "n": 1, "re": [True, False], "im": [0, 0]},
    {"kind": "amplitudes", "n": 1, "re": [1, 0], "im": ["0", "0"]},
    {"kind": "amplitudes", "n": 1, "re": {"0": 1, "1": 0}, "im": [0, 0]},
    {"kind": "named", "family": "ghz", "params": "3"},
    {"kind": "named", "family": "ghz", "params": [True]},
    {"kind": "named", "family": "ghz", "params": 3},
])
def test_state_spec_rejects_non_numeric_arrays(obj):
    with pytest.raises(ValueError, match="array of numbers"):
        StateSpec.from_dict(obj).build()


_GSD3 = (0.5, 0.5, 0.5, 0.5, 0.0, 0.3)  # l0..l4, phi
_WCLASS4 = (0.5, 0.5, 0.5, 0.5)  # l1..l4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family, params, names", [
    ("gsd3", _GSD3, ("l0", "l1", "l2", "l3", "l4", "phi")),
    ("wclass4", _WCLASS4, ("l1", "l2", "l3", "l4")),
])
def test_named_refuses_a_non_finite_parameter_by_name(family, params, names, bad):
    # NaN passed every coefficient comparison, and an infinite phi made
    # np.exp warn, before PureState refused the amplitudes.
    for k, name in enumerate(names):
        given = params[:k] + (bad,) + params[k + 1:]
        spec = StateSpec.from_dict({"kind": "named", "family": family, "params": list(given)})
        for build in (lambda: named(family, given), spec.build):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as err:
                    build()
            assert str(err.value) == f"{family} parameter {name} must be finite, got {bad!r}"


def test_named_keeps_finite_parameters():
    assert named("gsd3", _GSD3).num_qubits == 3
    assert named("gsd3", _GSD3[:5] + (1e308,)).num_qubits == 3
    assert named("wclass4", _WCLASS4).num_qubits == 4


def test_state_spec_holds_float_tuples_however_the_numbers_came():
    """An all-float array is kept as given and an array with integers is
    converted, so two specs of the same state compare and hash alike."""
    amps = [0.6, 0.0, 0.0, 0.8]
    floats = StateSpec.from_dict({"kind": "amplitudes", "n": 2, "re": amps, "im": [0.0] * 4})
    mixed = StateSpec.from_dict({"kind": "amplitudes", "n": 2, "re": [0.6, 0, 0, 0.8],
                                 "im": [0, 0, 0, 0]})
    assert floats.re == tuple(amps) and type(floats.re) is tuple
    assert all(type(v) is float for v in mixed.re + mixed.im)
    assert floats == mixed and hash(floats) == hash(mixed)
    assert np.array_equal(floats.build().amplitudes, mixed.build().amplitudes)
