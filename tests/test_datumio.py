"""The JSON datum format: round trips, strictness, literal forms."""

import copy
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbw.algebra import Datum, GroupSpec, NCPoly
from pbw.criterion import check_pbw
from pbw.datumio import MAX_CONDUCTOR, DatumFormatError, datum_from_dict, datum_to_dict, load_datum, save_datum
from pbw.presets import PRESET_NAMES, build_preset
from pbw.scalars import CycloField, PrimeField, RootOfUnity
from pbw.words import c_set


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_round_trip_bit_exactly(name, tmp_path):
    d = build_preset(name).datum
    path = tmp_path / f"{name}.json"
    save_datum(d, path)
    d2 = load_datum(path)
    assert d2.theta == d.theta
    assert d2.field == d.field
    assert d2.group == d.group
    assert d2.g == d.g and d2.chi == d.chi and d2.L == d.L
    assert d2.heights == d.heights
    assert d2.reds == d.reds and d2.redhats == d.redhats
    # and the serialized form itself is stable
    assert datum_to_dict(d2) == datum_to_dict(d)


def test_unknown_top_level_field_rejected():
    data = datum_to_dict(build_preset("taft").datum)
    data["extra"] = 1
    with pytest.raises(DatumFormatError):
        datum_from_dict(data)


def test_missing_field_rejected():
    data = datum_to_dict(build_preset("taft").datum)
    del data["heights"]
    with pytest.raises(DatumFormatError):
        datum_from_dict(data)


def test_unknown_term_key_rejected():
    data = datum_to_dict(build_preset("radford").datum)
    data["redhats"]["1"][0]["mystery"] = 1
    with pytest.raises(DatumFormatError):
        datum_from_dict(data)


def test_bad_height_rejected():
    data = datum_to_dict(build_preset("taft").datum)
    data["heights"]["1"] = "sometimes"
    with pytest.raises(DatumFormatError):
        datum_from_dict(data)
    data["heights"]["1"] = 0
    with pytest.raises(DatumFormatError):
        datum_from_dict(data)


def test_infinite_heights_round_trip():
    data = datum_to_dict(build_preset("quantum_plane").datum)
    assert data["heights"] == {"1": "inf", "2": "inf"}
    d = datum_from_dict(data)
    assert d.heights == {(1,): None, (2,): None}


def test_scalar_literal_forms():
    data = datum_to_dict(build_preset("radford").datum)
    # the coefficient 1 serializes as the root exponent 0
    assert data["redhats"]["1"][0]["coeff"] in (0, "1")
    # rationals and coefficient vectors are accepted on input
    data["redhats"]["1"][0]["coeff"] = "3/2"
    d = datum_from_dict(data)
    coeff = next(iter(d.redhats[(1,)].terms.values()))
    assert coeff == d.field.from_rational("3/2")


def wide_datum(rng):
    """A valid datum over 10 to 12 letters: theta letters and one two-letter
    Lyndon word in L, over Z/m with seeded characters, each height seeded as
    infinite or ord q_uu, zero relations but one red_ij = zeta^k x_j x_i."""
    theta, m = rng.randint(10, 12), rng.choice((2, 3, 4, 6))
    group = GroupSpec((m,))
    a, b = sorted(rng.sample(range(1, theta + 1), 2))
    L = tuple(sorted([(i,) for i in range(1, theta + 1)] + [(a, b)]))
    d = Datum(
        theta=theta, field=CycloField(m), group=group,
        g=tuple(group.element((rng.randrange(m),)) for _ in range(theta)),
        chi=tuple((rng.randrange(m),) for _ in range(theta)),
        L=L, heights={u: None for u in L}, reds={}, redhats={},
    )
    heights = {u: rng.choice((None, RootOfUnity(d.q_exp(u, u), m).order())) for u in L}
    reds = {w: NCPoly.zero() for w in c_set(L)}
    i, j = sorted(rng.sample(range(1, theta + 1), 2))
    if (i, j) in reds:
        reds[(i, j)] = NCPoly({(((j,), (i,)), group.identity()): d.field.root(rng.randrange(m))})
    redhats = {u: NCPoly.zero() for u in L if heights[u] is not None}
    return Datum(
        theta=theta, field=d.field, group=group, g=d.g, chi=d.chi,
        L=L, heights=heights, reds=reds, redhats=redhats,
    )


@pytest.mark.parametrize("seed", range(20))
def test_data_over_letters_above_9_round_trip_byte_identically(tmp_path, seed):
    d = wide_datum(random.Random(seed))
    assert d.validate() == []
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_datum(d, first)
    d2 = load_datum(first)
    assert (d2.L, d2.heights, d2.reds, d2.redhats) == (d.L, d.heights, d.reds, d.redhats)
    save_datum(d2, second)
    assert first.read_bytes() == second.read_bytes()
    assert (10,) in d.L and '"10,"' in first.read_text()


def test_a_datum_that_cannot_be_written_leaves_no_file(tmp_path):
    d = build_preset("quantum_plane").datum
    d = Datum(
        theta=d.theta, field=d.field, group=d.group, g=d.g, chi=((0,), (Fraction(1, 2),)),
        L=d.L, heights=d.heights, reds=d.reds, redhats=d.redhats,
    )
    path = tmp_path / "qp.json"
    with pytest.raises(TypeError):
        save_datum(d, path)
    assert not path.exists()


def test_prime_field_datum_round_trips(tmp_path):
    f = PrimeField(3)
    gs = GroupSpec((2,))
    red = NCPoly()
    red.add_term(((), (0,)), f.element(2))
    d = Datum(
        theta=1, field=f, group=gs, g=(gs.element((1,)),), chi=((1,),),
        L=((1,),), heights={(1,): 4}, reds={}, redhats={(1,): red},
    )
    # ord q11 = 2 and 4 = 2 * ord in characteristic 3... 4 = p^0 * 2? no:
    # 4 / 2 = 2 which is not a power of 3, so fix the height to 2 instead
    d = Datum(
        theta=1, field=f, group=gs, g=(gs.element((1,)),), chi=((1,),),
        L=((1,),), heights={(1,): 2}, reds={}, redhats={(1,): red},
    )
    assert d.validate() == []
    path = tmp_path / "fp.json"
    save_datum(d, path)
    d2 = load_datum(path)
    assert d2.field == f and d2.redhats == d.redhats


def test_large_prime_field_datum_round_trips(tmp_path):
    # coefficients over F_p are written as residues, so saving costs no
    # discrete logarithm even for a prime near the size limit
    f = PrimeField(999_999_937)
    gs = GroupSpec((2,))
    red = NCPoly()
    red.add_term(((), (0,)), f.element(123_456_789))
    d = Datum(
        theta=1, field=f, group=gs, g=(gs.element((1,)),), chi=((f.unit_order // 2,),),
        L=((1,),), heights={(1,): 2}, reds={}, redhats={(1,): red},
    )
    assert d.validate() == []
    path = tmp_path / "fp_large.json"
    save_datum(d, path)
    assert json.loads(path.read_text())["redhats"]["1"][0]["coeff"] == "123456789"
    d2 = load_datum(path)
    assert d2.field == f and d2.redhats == d.redhats


@pytest.mark.parametrize("m", [997, 990, MAX_CONDUCTOR])
def test_largest_conductors_load_and_check_well_under_a_second(m, tmp_path):
    # 997 is the largest prime conductor (zeta^996 is dense); 990 has the
    # most power rows past phi(m) = 240 that need a fold
    raw = datum_to_dict(build_preset("quantum_plane", m=m, k=1).datum)
    raw["reds"]["12"] = [{"word": ["2", "1"], "grp": [0], "coeff": m - 1}]
    path = tmp_path / "qplane.json"
    path.write_text(json.dumps(raw))
    t0 = time.perf_counter()
    d = load_datum(path)
    assert d.validate() == []
    assert check_pbw(d).passed
    assert datum_to_dict(d) == raw  # the root literal is recognized again
    assert time.perf_counter() - t0 < 1.0


def test_char_p_height_shape_accepts_p_powers():
    # q11 = 1 has order 1; heights p^k are the valid shapes in char p
    f = PrimeField(2)
    gs = GroupSpec((2,))
    d = Datum(
        theta=1, field=f, group=gs, g=(gs.element((1,)),), chi=((0,),),
        L=((1,),), heights={(1,): 4}, reds={}, redhats={(1,): NCPoly.zero()},
    )
    assert d.validate() == []
    d_bad = Datum(
        theta=1, field=f, group=gs, g=(gs.element((1,)),), chi=((0,),),
        L=((1,),), heights={(1,): 6}, reds={}, redhats={(1,): NCPoly.zero()},
    )
    assert any("height" in v for v in d_bad.validate())


def test_word_literal_with_commas():
    data = datum_to_dict(build_preset("taft").datum)
    text = json.dumps(data)
    assert '"1"' in text  # single-letter words are digit strings


# -- malformed input: a Datum or DatumFormatError, never anything else -------

_FUZZ_PRESETS = ("uq_sl2", "radford", "quantum_plane", "lifting_a2_1a", "lifting_a2_2b")
_FUZZ_DICTS = [datum_to_dict(build_preset(name).datum) for name in _FUZZ_PRESETS]


def _paths(obj, prefix=()):
    """Every position below the root of a JSON value, as a key path."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


_FUZZ_PATHS = [(i, path) for i, data in enumerate(_FUZZ_DICTS) for path in _paths(data)]
_DELETE = object()

# small integers keep field and group sizes cheap to construct
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-4, 4, allow_nan=False)
    | st.sampled_from(["", "inf", "1/0", "3/2", "0", "12", "21", "1,2", "x", "-1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "word", "grp", "coeff", "torsion"]), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(_FUZZ_PATHS), st.just(_DELETE) | _JSON_VALUES)
def test_single_field_mutations_load_or_raise_format_error(target, value):
    index, path = target
    data = copy.deepcopy(_FUZZ_DICTS[index])
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        d = datum_from_dict(data)
    except DatumFormatError:
        return
    assert isinstance(d, Datum)
    assert isinstance(d.validate(), list)
