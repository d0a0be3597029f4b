"""The JSON datum format: round trips, strictness, literal forms."""

import copy
import hashlib
import importlib.util
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbw import datumio, presets
from pbw.algebra import Datum, GroupSpec, NCPoly
from pbw.criterion import check_pbw
from pbw.datumio import (
    MAX_CONDUCTOR,
    MAX_FREE_RANK,
    MAX_MEMBER_LETTERS,
    MAX_THETA,
    DatumFormatError,
    datum_from_dict,
    datum_to_dict,
    load_datum,
    save_datum,
)
from pbw.presets import PRESET_NAMES, build_preset
from pbw.scalars import CycloField, PrimeField, RootOfUnity, format_scalar
from pbw.words import c_set

from corpus import FILES, letters_without_reds


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


def test_terms_enter_each_polynomial_as_add_term_adds_them():
    # a zero coefficient is skipped, an equal monomial merges, a sum of zero
    # removes the monomial, and a later term puts it back at the end
    d = build_preset("uq_sl2").datum
    data = datum_to_dict(d)
    data["reds"]["12"] = [
        {"word": [], "grp": [0], "coeff": "1"},
        {"word": ["2", "1"], "grp": [0], "coeff": 0},
        {"word": [], "grp": [1], "coeff": "0"},
        {"word": [], "grp": [0], "coeff": "-1"},
        {"word": ["2", "1"], "grp": [0], "coeff": 1},
        {"word": [], "grp": [2], "coeff": ["0", "0"]},
        {"word": [], "grp": [0], "coeff": "1/2"},
        {"word": ["2", "1"], "grp": [0], "coeff": [-1, "-1"]},
    ]
    expected = NCPoly()
    for t in data["reds"]["12"]:
        word = tuple(tuple(int(c) for c in u) for u in t["word"])
        coeff = t["coeff"]
        if isinstance(coeff, int):
            c = d.field.root(coeff)
        elif isinstance(coeff, str):
            c = d.field.from_rational(Fraction(coeff))
        else:
            c = d.field.element([Fraction(str(x)) for x in coeff])
        expected.add_term((word, tuple(t["grp"])), c)
    got = datum_from_dict(data).reds[(1, 2)]
    assert list(got.terms.items()) == list(expected.terms.items())
    assert [m for m in got.terms] == [((), (0,))]  # 1 + z - 1 - z cancels the x2 x1 term


def test_size_limits_of_the_group_and_of_L_admit_their_largest_values():
    data = datum_to_dict(build_preset("quantum_plane").datum)
    data["group"] = {"torsion": [], "free_rank": MAX_FREE_RANK}
    data["g"] = [[1] + [0] * (MAX_FREE_RANK - 1), [0, 1] + [0] * (MAX_FREE_RANK - 2)]
    data["chi"] = [[0] * MAX_FREE_RANK, [0] * MAX_FREE_RANK]
    d = datum_from_dict(data)
    assert d.group.nfactors == MAX_FREE_RANK and d.validate() == []
    # a Lyndon member of the longest accepted length loads (and validate
    # finds L not Shirshov closed); one letter more is refused by the loader
    data = datum_to_dict(build_preset("quantum_plane").datum)
    longest = "1" + "2" * (MAX_MEMBER_LETTERS - 1)
    data["L"].append(longest)
    data["heights"][longest] = "inf"
    assert datum_from_dict(data).validate()[0] == "L is not Shirshov closed"
    data["L"][-1] += "2"
    with pytest.raises(DatumFormatError, match=f"has {MAX_MEMBER_LETTERS + 1} letters, above the limit"):
        datum_from_dict(data)


def test_rank_limit_admits_its_largest_value():
    # the rank is refused before the datum builds its theta^2 table; rank
    # 300 took 0.17 s to load and validate, and listed C(L) in a 0.37 MB line
    for theta in (10, 12, MAX_THETA):
        d = datum_from_dict(letters_without_reds(theta))
        assert d.theta == theta
        assert d.validate()[0].startswith("reds must be given for exactly C(L)")
    with pytest.raises(DatumFormatError, match=f"theta {MAX_THETA + 1} is above the limit {MAX_THETA}"):
        datum_from_dict(letters_without_reds(MAX_THETA + 1))


def test_a_long_member_of_L_is_refused_before_validation_starts():
    # validate() tests a member in time quadratic in its length: 10,000
    # letters took 1.5 s to be refused
    data = FILES["long.json"]()
    t0 = time.perf_counter()
    with pytest.raises(DatumFormatError, match="a member of L has 10000 letters"):
        datum_from_dict(data)
    assert time.perf_counter() - t0 < 0.5


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def test_values_nested_past_the_recursion_limit_are_format_errors(tmp_path):
    deep = _nested(sys.getrecursionlimit() + 100)
    for where in ("coeff", "word"):
        data = datum_to_dict(build_preset("uq_sl2").datum)
        term = {"word": [], "grp": [0], "coeff": 0}
        term[where] = [deep, "0"] if where == "coeff" else [deep]
        data["reds"]["12"] = [term]
        with pytest.raises(DatumFormatError, match="^a JSON value is nested too deeply$"):
            datum_from_dict(data)
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(DatumFormatError, match="^not a JSON file: maximum recursion depth exceeded"):
        load_datum(path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_files_load_as_a_utf8_text_stream_reads_them(tmp_path, newline):
    # load_datum reads bytes and translates newlines itself; the reference
    # is json.load on open(path, encoding="utf-8"), whose universal newlines
    # place every JSON error at the same line, column and character
    good = json.dumps(datum_to_dict(build_preset("radford").datum), indent=1).encode()
    bodies = {
        "good": good,
        "comma": good.replace(b'"theta"', b'"theta",', 1),
        "control": good.replace(b'"inf"', b'"in\rf"').replace(b'"1"', b'"\r1"', 1),
        "utf8": good.replace(b'"field"', b'"fi\xffeld"', 1),
        "bom": b"\xef\xbb\xbf" + good,
        "empty": b"",
    }

    def outcome(read):
        try:
            return datum_to_dict(read())
        except (DatumFormatError, ValueError) as e:
            return str(e).removeprefix("not a JSON file: ")

    for name, body in bodies.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(body.replace(b"\n", newline))

        def reference():
            with open(path, encoding="utf-8") as f:
                return datum_from_dict(json.load(f))

        assert outcome(lambda: load_datum(path)) == outcome(reference), name
    assert isinstance(outcome(lambda: load_datum(tmp_path / "good.json")), dict)


def _bench_cases():
    """The benchmark's seeded case generator, bench/cases.py."""
    spec = importlib.util.spec_from_file_location("bench_cases", Path(__file__).parents[1] / "bench" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loaded_terms(data):
    """Every red and redhat of the loaded datum, its terms in insertion order."""
    d = datum_from_dict(data)
    return [
        [kind, list(w), [[[list(u) for u in U], list(g), format_scalar(c)] for (U, g), c in p.terms.items()]]
        for kind, polys in (("reds", d.reds), ("redhats", d.redhats))
        for w, p in polys.items()
    ]


# recorded before the loader was rewritten to build its messages lazily
LOADED_TERMS = "2c26d1dd6b96b97ecc48719c51977a9c5b8af80944eb65896204ab45a9e9abb8"


def test_loaded_terms_keep_the_recorded_insertion_order():
    # the presets as saved, then with every term list reversed and followed
    # by itself (each term merges with its copy), then the check-tampered
    # data of the benchmark at seeds 1-5; format_poly and the rewrite kernel
    # read terms in this order, and datum_to_dict sorts them
    corpus = [datum_to_dict(build_preset(name).datum) for name in PRESET_NAMES]
    for data in corpus[:len(PRESET_NAMES)]:
        data = copy.deepcopy(data)
        for polys in (data["reds"], data["redhats"]):
            for w, terms in polys.items():
                polys[w] = terms[::-1] + terms
        corpus.append(data)
    cases = _bench_cases()
    for seed in range(1, 6):
        corpus += [data for _stem, data, _ops in cases.generate("check-tampered", seed, presets, datumio)]
    blob = json.dumps([_loaded_terms(data) for data in corpus], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == LOADED_TERMS


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
_FUZZ_TEXTS = [json.dumps(data) for data in _FUZZ_DICTS]
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


def _mutated(index, path, value):
    """A fresh copy of the index-th fuzz dict with the value at path replaced,
    or deleted for _DELETE."""
    data = json.loads(_FUZZ_TEXTS[index])
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(_FUZZ_PATHS), st.just(_DELETE) | _JSON_VALUES)
def test_single_field_mutations_load_or_raise_format_error(target, value):
    try:
        d = datum_from_dict(_mutated(*target, value))
    except DatumFormatError:
        return
    assert isinstance(d, Datum)
    assert isinstance(d.validate(), list)


# One value of each kind that the loader tells apart: integers, booleans and
# floats, word and scalar literal forms (whitespace, a sign, a decimal,
# non-ASCII digits, a zero denominator), and short lists and objects.
_MALFORMED_VALUES = (
    _DELETE, None, True, 0, 1, -1, 2, 12, 1.5, "", " 1 ", "inf", "0", "-1", "3/2", "1/0", "+2", "0.5",
    "\u0661", "\u00b2", "x", "21", "1,2", "10,", [], [0], [True], ["1"], ["1/2", "-1"], [[1]], {},
    {"word": [], "grp": [0], "coeff": 1},
)
# each mutation's DatumFormatError text, or its validate() list; recorded
# before the loader built its messages lazily and read ASCII rationals
# directly, and re-recorded when the reds and redhats key errors came to
# name the missing and extra keys (those 38 lists were the only change)
MALFORMED_OUTCOMES = "51e2a1aaaa92e8b2fa7ab4b2bd238c328e3e84e22c9cc0a1706999447d0bcc18"


def test_every_single_field_mutation_gives_the_recorded_refusal():
    outcomes = []
    for index, path in _FUZZ_PATHS:
        for value in _MALFORMED_VALUES:
            try:
                outcomes.append(datum_from_dict(_mutated(index, path, value)).validate())
            except DatumFormatError as e:
                outcomes.append(str(e))
    assert sum(isinstance(o, str) for o in outcomes) > 2000
    blob = json.dumps(outcomes, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == MALFORMED_OUTCOMES
