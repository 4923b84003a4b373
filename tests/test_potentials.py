import json

import numpy as np
import pytest

from qmetric.potentials import (
    Domain,
    PhysConstants,
    PotentialSpec,
    constants_preset,
    delta_potential,
    eval_mass_term,
    eval_potential,
    potential_from_dict,
    potential_to_dict,
    pt_delta_pairs,
    scattering_potential,
    square_well,
)


def test_constants_presets():
    nat = constants_preset("natural")
    assert nat.hbar == 1.0 and nat.mass == 1.0
    assert nat.c0 == 2.0
    bt = constants_preset("bender-tan")
    assert bt.hbar == 1.0 and bt.mass == 0.5
    assert bt.c0 == 1.0


def test_constants_preset_unknown_name():
    with pytest.raises(ValueError, match="unknown constants preset"):
        constants_preset("si")


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysConstants(mass=-1.0)
    with pytest.raises(ValueError):
        PhysConstants(hbar=float("inf"))


def test_domain_construction():
    assert Domain.box(4.0) == Domain(4.0)
    assert Domain.box(4.0).half_width == 2.0
    assert Domain.box(4.0).is_box and Domain.box(4.0).kind == "box"
    assert Domain.line() == Domain()
    assert not Domain.line().is_box and Domain.line().kind == "line"
    assert Domain.line().half_width is None
    for length in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive finite length"):
            Domain(length)


def test_square_well_values():
    pot = square_well(zeta=0.5, L=2.0, constants=constants_preset("natural"))
    v = eval_potential(pot, np.array([-0.7, -0.2, 0.3, 0.9]))
    np.testing.assert_allclose(v, [0.5j, 0.5j, -0.5j, -0.5j])


def test_square_well_midpoint_at_jump():
    # sign(0) = 0: the step at the origin averages to zero
    pot = square_well(zeta=1.0, L=2.0, constants=constants_preset("natural"))
    np.testing.assert_allclose(eval_potential(pot, 0.0), 0.0)


def test_square_well_outside_box_raises():
    pot = square_well(0.5, 2.0, constants_preset("natural"))
    with pytest.raises(ValueError, match="outside the box"):
        eval_potential(pot, 1.5)


def test_scattering_profile_vanishes_outside_support():
    pot = scattering_potential(0.5, 2.0, constants_preset("natural"))
    v = eval_potential(pot, np.array([-5.0, -1.0, -0.5, 0.5, 1.0, 5.0]))
    np.testing.assert_allclose(v, [0.0, 0.25j, 0.5j, -0.5j, -0.25j, 0.0])


def test_mass_term_matches_definition():
    pot = square_well(0.5, 2.0, constants_preset("natural"))
    x = np.array([-0.3, 0.4, 0.7])
    y = np.array([0.1, -0.6, 0.7])
    mu2 = eval_mass_term(pot, x, y)
    vx = eval_potential(pot, x)
    vy = eval_potential(pot, y)
    np.testing.assert_allclose(mu2, 2.0 * (np.conj(vx) - vy))


def test_mass_term_swap_conjugation():
    # mu^2(y, x)* = -mu^2(x, y) holds for every potential
    rng = np.random.default_rng(11)
    pot = scattering_potential(0.7, 1.6, constants_preset("bender-tan"))
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=8)
        y = rng.uniform(-2.0, 2.0, size=8)
        a = eval_mass_term(pot, x, y)
        b = eval_mass_term(pot, y, x)
        np.testing.assert_allclose(np.conj(b), -a, atol=1e-14)


def test_delta_potential_spec():
    pot = delta_potential([(0.3, 1.0), (-0.3, -1.0)], constants_preset("natural"))
    assert pot.has_deltas and not pot.has_segments
    np.testing.assert_allclose(eval_potential(pot, np.linspace(-1, 1, 11)), 0.0)


def test_pt_delta_pairs_expand():
    pot = pt_delta_pairs([(0.4, 2.0)], constants_preset("natural"))
    assert pot.deltas == ((0.4, 2.0), (-0.4, -2.0))


def test_segment_validation():
    const = constants_preset("natural")
    with pytest.raises(ValueError, match="a < b"):
        PotentialSpec(const, Domain.line(), segments=(((1.0, 0.0), 1.0),))
    with pytest.raises(ValueError, match="ordered and disjoint"):
        PotentialSpec(const, Domain.line(),
                      segments=(((0.0, 2.0), 1.0), ((1.0, 3.0), 2.0)))
    with pytest.raises(ValueError, match="inside the box"):
        PotentialSpec(const, Domain.box(2.0), segments=(((0.0, 3.0), 1.0),))
    with pytest.raises(ValueError, match="strictly inside"):
        PotentialSpec(const, Domain.box(2.0), deltas=((1.0, 0.5),))
    for bad in (np.inf, -np.inf, np.nan):
        for value in (complex(bad, 0.0), complex(0.0, bad)):
            with pytest.raises(ValueError, match="segment value must be finite"):
                PotentialSpec(const, Domain.line(), segments=(((0.0, 1.0), value),))
        for term in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="delta term must be finite"):
                PotentialSpec(const, Domain.line(), deltas=(term,))


def test_midpoint_convention_random_steps():
    rng = np.random.default_rng(23)
    const = constants_preset("natural")
    for _ in range(50):
        e = np.sort(rng.uniform(-1.0, 1.0, size=4))
        if np.min(np.diff(e)) < 1e-3:
            continue
        vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pot = PotentialSpec(const, Domain.line(), segments=(
            ((e[0], e[1]), vals[0]),
            ((e[1], e[2]), vals[1]),
            ((e[2], e[3]), vals[2]),
        ))
        # interior points take the segment value
        mids = 0.5 * (e[:-1] + e[1:])
        np.testing.assert_allclose(eval_potential(pot, mids), vals)
        # breakpoints average the one-sided limits (0 outside the support)
        expected = [0.5 * vals[0], 0.5 * (vals[0] + vals[1]),
                    0.5 * (vals[1] + vals[2]), 0.5 * vals[2]]
        np.testing.assert_allclose(eval_potential(pot, e), expected)


def json_round_trip(pot):
    """The potential read back from the JSON text of its dict, as a run record holds it."""
    return potential_from_dict(json.loads(json.dumps(potential_to_dict(pot))))


def test_json_round_trip():
    pots = [
        square_well(0.5, np.pi, constants_preset("bender-tan")),
        scattering_potential(0.7, 1.6, constants_preset("natural")),
        delta_potential([(0.0, 1.0), (0.5, -2.0)], constants_preset("natural")),
        PotentialSpec(constants_preset("natural"), Domain.line(),
                      segments=(((-1.0, 1.0), 0.3 - 0.2j),),
                      deltas=((0.0, 1.5),)),
    ]
    for pot in pots:
        assert json_round_trip(pot) == pot


def test_json_serialization_is_stable():
    pot = square_well(0.5, np.pi, constants_preset("bender-tan"))
    s1 = json.dumps(potential_to_dict(pot), indent=2)
    s2 = json.dumps(potential_to_dict(json_round_trip(pot)), indent=2)
    assert s1 == s2


def test_malformed_json_rejected():
    # text that is not JSON is rejected where it is read (the "invalid JSON
    # in" case of test_cli); a parsed document must hold a valid potential
    with pytest.raises(ValueError):
        potential_from_dict({"domain": {"type": "line"}})
    with pytest.raises(ValueError, match="unknown domain type 'ring'"):
        potential_from_dict({"constants": {"hbar": 1, "mass": 1}, "domain": {"type": "ring"}})
    with pytest.raises(ValueError, match="positive finite length"):
        potential_from_dict({"constants": {"hbar": 1, "mass": 1},
                             "domain": {"type": "box", "L": -2.0}})


@pytest.mark.parametrize("key", ["delta", "grid", "series"])
def test_unknown_key_rejected(key):
    # a misspelled "deltas" used to give the free particle
    doc = {**potential_to_dict(delta_potential([(0.0, 1.0)], constants_preset("natural"))),
           key: []}
    with pytest.raises(ValueError, match=rf"unknown potential keys \['{key}'\]"):
        potential_from_dict(doc)



# each stray field used to be dropped without a word
STRAY_FIELDS = {
    "constants": ("constants", "c0", "constants, which holds only hbar, mass"),
    "line_domain": ("domain", "L", "domain (type line), which holds only type"),
    "box_domain": ("domain", "width", "domain, which holds only type, L"),
    "segment": ("segments", "v", "segments[0], which holds only from, to, re, im"),
    "coupling": ("deltas", "z", "deltas[1], which holds only a, zeta"),
}


@pytest.mark.parametrize("case", sorted(STRAY_FIELDS))
def test_unknown_nested_key_rejected(case):
    domain = Domain.box(4.0) if case == "box_domain" else Domain.line()
    doc = potential_to_dict(PotentialSpec(constants_preset("natural"), domain,
                                          segments=(((-1.0, 1.0), 0.2j),),
                                          deltas=((0.0, 1.0), (0.5, -1.0))))
    potential_from_dict(doc)
    part, key, where = STRAY_FIELDS[case]
    (doc[part] if part in ("constants", "domain") else doc[part][-1])[key] = 3.0
    with pytest.raises(ValueError) as err:
        potential_from_dict(doc)
    assert str(err.value) == f"unknown potential keys ['{key}'] in {where}"
