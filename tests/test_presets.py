"""Every named example validates, passes the check in both modes, and has
the advertised dimension; coefficient admissibility is enforced."""

import inspect
from fractions import Fraction

import pytest

from pbw.criterion import check_pbw
from pbw.datumio import datum_to_dict
from pbw import presets
from pbw.presets import PRESET_NAMES, build_preset
from pbw.rewrite import hilbert, pbw_monomials


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_validates_and_passes(name):
    p = build_preset(name)
    assert p.datum.validate() == []
    full = check_pbw(p.datum, mode="full")
    reduced = check_pbw(p.datum, mode="reduced")
    assert full.passed, [c.line() for c in full.conditions if not c.passed]
    assert reduced.passed
    if p.expected_dimension is not None:
        assert sum(1 for _ in pbw_monomials(p.datum)) == p.expected_dimension


def test_expected_dimensions():
    expected = {
        "taft": 9,
        "radford": 27,
        "book": 27,
        "uq_sl2": 27,
        "lifting_a1xa1": 64,
        "lifting_a2_1a": 128,
        "lifting_a2_1b": 243,
        "lifting_a2_1c": 4096,
        "lifting_a2_2a": 216,
        "lifting_a2_2b": 128,
        "lifting_a2_3a": 216,
        "lifting_a2_3b": 128,
        "lifting_a2_4a": 144,
        "lifting_a2_4b": 128,
        "b2_scaffold": 3125,
        "quantum_plane": None,
        "weyl": None,
    }
    for name, dim in expected.items():
        assert build_preset(name).expected_dimension == dim, name


def test_lifting_a2_1a_dimension_is_eight_times_group_order():
    p = build_preset("lifting_a2_1a")
    assert p.expected_dimension == 8 * p.datum.group.order()


def test_infinite_presets_count_words_of_each_length():
    for name in ("quantum_plane", "weyl"):
        p = build_preset(name)
        assert hilbert(p.datum, 10) == list(range(1, 12))


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_preset("nope")
    with pytest.raises(ValueError):
        build_preset("taft", N=1)
    with pytest.raises(ValueError):
        build_preset("uq_sl2", N=4)  # ord(q^2) != N for even N
    with pytest.raises(ValueError):
        build_preset("book", N=2)
    with pytest.raises(ValueError):
        build_preset("taft", bogus=3)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_parameters_are_checked_from_the_builder_signature(name):
    with pytest.raises(ValueError) as e:
        build_preset(name, zz=1)
    assert str(e.value) == "unknown parameters: ['zz']"
    builder, _ = presets._BUILDERS[name]
    for key, p in inspect.signature(builder).parameters.items():
        if isinstance(p.default, int):
            with pytest.raises(ValueError) as e:
                build_preset(name, **{key: Fraction(5, 2)})
            assert str(e.value) == f"parameter {key} must be an integer"


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_taft_and_radford_are_their_family_members(N):
    def data(name, **params):
        return datum_to_dict(build_preset(name, **params).datum)

    assert data("taft", N=N) == data("nichols_a1", N=N)
    assert data("radford", N=N) == data("lifting_a1", N=N, mu1=1)


def test_coefficient_forcing():
    # explicit zero is always fine
    p = build_preset("lifting_a1xa1", N=2, lam12=0, mu1=0, mu2=0)
    assert p.datum.reds[(1, 2)].is_zero()
    # scaling the coefficients keeps the preset passing
    p = build_preset("lifting_a1xa1", N=2, lam12="3/2", mu1=2, mu2="“-1".strip("“"))
    assert check_pbw(p.datum).passed


def test_inadmissible_coefficient_raises():
    from pbw.algebra import GroupSpec
    from pbw.presets import _Builder
    from pbw.scalars import CycloField

    # over Z/N the power lifting of x1 has a trivial group element g1^N
    b = _Builder(1, CycloField(3), GroupSpec((3,)), [(1,)], [(1,)], [(1,)], {(1,): 3})
    with pytest.raises(ValueError):
        b.mu((1,), 1)
    assert b.mu((1,), 0).is_zero()
    assert b.mu((1,), None).is_zero()  # generic default collapses to zero


def test_uq_sl2_matches_lifting_family():
    # the kernel is the A1 x A1 lifting with lambda = 1 and mu = 0
    d = build_preset("uq_sl2", N=5).datum
    assert d.heights == {(1,): 5, (2,): 5}
    red = d.reds[(1, 2)]
    assert len(red.terms) == 2
    assert d.redhats[(1,)].is_zero() and d.redhats[(2,)].is_zero()
