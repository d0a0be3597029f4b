"""Smash-product arithmetic, the commutator calculus, super-letter expansion,
the derivation behind the bracket recursion, and datum validation."""

import random
from dataclasses import fields, replace
from functools import reduce

import pytest

from pbw.algebra import Datum, GroupSpec, NCPoly, format_monomial, format_poly
from pbw.criterion import _delta
from pbw.scalars import CycloField, PrimeField, q_binomial
from pbw.words import lyndon_up_to


def generic_datum(m=12):
    """Two generators over Z/m with unconstrained characters; no relations
    are attached, so it serves as a free smash-product playground."""
    field = CycloField(m)
    group = GroupSpec((m,))
    return Datum(
        theta=2, field=field, group=group,
        g=(group.element((1,)), group.element((5,))),
        chi=((3,), (2,)),
        L=((1,), (1, 2), (2,)),
        heights={(1,): None, (1, 2): None, (2,): None},
        reds={}, redhats={},
    )


LETTERS = [(1,), (2,), (1, 2)]


def random_poly(d, rng, max_terms=3, max_letters=2):
    p = NCPoly()
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, max_letters)))
        g = d.group.element((rng.randrange(12),))
        c = d.field.root(rng.randrange(12)) if rng.random() < 0.7 else d.field.from_rational(rng.randint(-3, 3))
        p.add_term((word, g), c)
    return p


def test_group_spec():
    g = GroupSpec((3, 4), 1)
    assert g.nfactors == 3
    assert not g.is_finite()
    assert g.element((4, -1, 7)) == (1, 3, 7)
    assert g.mul((2, 3, 1), (2, 2, -1)) == (1, 1, 0)
    assert g.power((1, 1, 1), 5) == (2, 1, 5)
    fin = GroupSpec((2, 3))
    assert fin.order() == 6
    assert len(fin.elements()) == 6
    with pytest.raises(ValueError):
        GroupSpec((1,))


def test_bicharacter_table():
    d = generic_datum()
    # q_ij = chi_j(g_i)
    assert d.q_uv((1,), (2,)) == d.field.root(2 * 1)
    assert d.q_uv((2,), (1,)) == d.field.root(3 * 5)
    assert d.q_uv((1, 1, 2), (2,)) == d.field.root((2 + 2 + 2 * 5) % 12)
    assert d.q_uv((), (2,)).is_one()
    assert d.q_exp((1,), (1, 2)) == (3 * 1 + 2 * 1) % 12


def test_mul_moves_group_elements_right():
    d = generic_datum()
    g = d.group.element((1,))
    h = d.group.element((2,))
    a = d.mul(d.monomial(((1,),), g), d.monomial(((2,),), h))
    # (x1 g)(x2 h) = chi_2(g) x1 x2 (g h)
    assert a == d.monomial(((1,), (2,)), (3,), d.chi_apply((2,), g))
    assert d.mul(d.unit(), a) == a
    # free multiplication: no reordering of letters
    b = d.mul(d.letter((2,)), d.letter((1,)))
    assert b == d.monomial(((2,), (1,)))


def reference_mul(d, a, b):
    """Datum.mul by the per-letter formula (U g)(V h) = prod_{l in V}
    chi_l(g) (UV)(gh), every twist looked up afresh."""
    out = NCPoly()
    for (U, g), ca in a.terms.items():
        for (V, h), cb in b.terms.items():
            tw = sum(d.chi_apply_exp(d.chi_word(l), g) for l in V)
            gh = d.group.element(x + y for x, y in zip(g, h))
            out.add_term((U + V, gh), ca * cb * d.field.root(tw))
    return out


def small_datum(field, group, g, chi):
    return Datum(
        theta=2, field=field, group=group, g=g, chi=chi,
        L=((1,), (1, 2), (2,)),
        heights={(1,): None, (1, 2): None, (2,): None},
        reds={}, redhats={},
    )


def random_datum_poly(d, rng, max_terms=4, max_letters=3):
    """Random polynomial over the members of L, with group parts over every
    factor (free exponents of either sign)."""
    p = NCPoly()
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(d.L) for _ in range(rng.randint(0, max_letters)))
        exps = [rng.randrange(m) for m in d.group.torsion] + [rng.randint(-3, 3) for _ in range(d.group.free_rank)]
        c = d.field.root(rng.randrange(12)) if rng.random() < 0.6 else d.field.from_rational(rng.randint(-3, 3))
        p.add_term((word, d.group.element(exps)), c)
    return p


def _mul_data():
    from pbw.presets import build_preset

    f7, f2, c4 = PrimeField(7), PrimeField(2), CycloField(4)
    return {
        "b2_scaffold": build_preset("b2_scaffold").datum,
        "F_7": small_datum(f7, GroupSpec((6,)), ((1,), (2,)), ((1,), (4,))),
        # unit_order 1: every twist is trivial, whatever the exponents
        "F_2": small_datum(f2, GroupSpec((2,)), ((1,), (1,)), ((1,), (3,))),
        "free_rank": small_datum(c4, GroupSpec((4,), 1), ((1, 0), (3, 1)), ((1, 1), (2, 3))),
    }


@pytest.mark.parametrize("name", ["b2_scaffold", "F_7", "F_2", "free_rank"])
def test_mul_matches_the_per_letter_formula(name):
    d = _mul_data()[name]
    rng = random.Random(name)
    for _ in range(60):
        a, b = random_datum_poly(d, rng), random_datum_poly(d, rng)
        # equal terms in the same order, so printed products do not change
        assert list(d.mul(a, b).terms.items()) == list(reference_mul(d, a, b).terms.items())


def test_replace_builds_a_fresh_twist_table():
    from pbw.presets import build_preset

    d = build_preset("lifting_a2_1b").datum
    rng = random.Random(5)
    pairs = [(random_datum_poly(d, rng), random_datum_poly(d, rng)) for _ in range(20)]
    before = [d.mul(a, b) for a, b in pairs]
    copy = replace(d, chi=((1,), (3,)))
    assert copy._letter_chi is not d._letter_chi
    assert copy._letter_chi[(1, 2)] == (4,) and d._letter_chi[(1, 2)] == (6,)
    for a, b in pairs:
        assert copy.mul(a, b) == reference_mul(copy, a, b)
    assert [d.mul(a, b) for a, b in pairs] == before
    assert before == [reference_mul(d, a, b) for a, b in pairs]


def test_mul_is_associative_on_random_triples():
    d = generic_datum()
    rng = random.Random(31)
    for _ in range(40):
        a, b, c = (random_poly(d, rng) for _ in range(3))
        assert d.mul(d.mul(a, b), c) == d.mul(a, d.mul(b, c))


def test_commutator_examples():
    d = generic_datum()
    x1, x2 = d.letter((1,)), d.letter((2,))
    q12 = d.q_uv((1,), (2,))
    br = d.graded_commutator(x1, x2)
    assert br == d.mul(x1, x2) - d.mul(x2, x1).scale(q12)
    assert d.q_commutator(x1, x1, d.field.one()).is_zero()
    # iterated bracket twists by q11 q12
    inner = d.graded_commutator(x1, x2)
    outer = d.graded_commutator(x1, inner)
    q11 = d.q_uv((1,), (1,))
    assert outer == d.mul(x1, inner) - d.mul(inner, x1).scale(q11 * q12)


def test_graded_commutator_rejects_inhomogeneous():
    d = generic_datum()
    mixed = d.letter((1,)) + d.letter((2,))
    with pytest.raises(ValueError):
        d.graded_commutator(mixed, d.letter((1,)))
    with pytest.raises(ValueError):
        d.graded_commutator(d.letter((1,)), mixed)


def test_q_derivation_properties():
    d = generic_datum()
    rng = random.Random(41)
    f = d.field
    for _ in range(30):
        a, b, c = (random_poly(d, rng) for _ in range(3))
        q, qp = f.root(rng.randrange(12)), f.root(rng.randrange(12))
        left = d.q_commutator(a, d.mul(b, c), q * qp)
        right = d.mul(d.q_commutator(a, b, q), c) + d.mul(b, d.q_commutator(a, c, qp)).scale(q)
        assert left == right
        left2 = d.q_commutator(d.mul(a, b), c, q * qp)
        right2 = d.mul(a, d.q_commutator(b, c, qp)) + d.mul(d.q_commutator(a, c, q), b).scale(qp)
        assert left2 == right2


def test_q_derivation_ternary_form():
    d = generic_datum()
    rng = random.Random(59)
    f = d.field
    for _ in range(15):
        a, b1, b2, b3 = (random_poly(d, rng) for _ in range(4))
        q1, q2, q3 = (f.root(rng.randrange(12)) for _ in range(3))
        left = d.q_commutator(a, reduce(d.mul, [b1, b2, b3]), q1 * q2 * q3)
        right = (
            reduce(d.mul, [d.q_commutator(a, b1, q1), b2, b3])
            + reduce(d.mul, [b1, d.q_commutator(a, b2, q2), b3]).scale(q1)
            + reduce(d.mul, [b1, b2, d.q_commutator(a, b3, q3)]).scale(q1 * q2)
        )
        assert left == right


def test_q_jacobi_identity():
    d = generic_datum()
    rng = random.Random(43)
    f = d.field
    for _ in range(30):
        a, b, c = (random_poly(d, rng) for _ in range(3))
        q, qp, qpp = (f.root(rng.randrange(12)) for _ in range(3))
        left = d.q_commutator(d.q_commutator(a, b, qp), c, qpp * q)
        right = (
            d.q_commutator(a, d.q_commutator(b, c, q), qp * qpp)
            - d.mul(b, d.q_commutator(a, c, qpp)).scale(qp)
            + d.mul(d.q_commutator(a, c, qpp), b).scale(q)
        )
        assert left == right


def nested_right(d, a, b, q, zeta, count):
    """[...[[a, b]_q, b]_{q zeta} ..., b]_{q zeta^(count-1)}"""
    out = a
    for k in range(count):
        out = d.q_commutator(out, b, q * zeta ** k)
    return out


def nested_left(d, a, b, q, zeta, count):
    """[a, ... [a, [a, b]_q]_{q zeta} ...]_{q zeta^(count-1)}"""
    out = b
    for k in range(count):
        out = d.q_commutator(a, out, q * zeta ** k)
    return out


def test_q_leibniz_formulas():
    d = generic_datum()
    rng = random.Random(47)
    f = d.field
    for _ in range(12):
        a = random_poly(d, rng, max_terms=2, max_letters=1)
        b = random_poly(d, rng, max_terms=2, max_letters=1)
        q, zeta = f.root(rng.randrange(12)), f.root(rng.randrange(12))
        for r in range(1, 5):
            bpow = d.unit()
            for _ in range(r):
                bpow = d.mul(bpow, b)
            left = d.q_commutator(a, bpow, q ** r)
            right = NCPoly.zero()
            for i in range(r):
                coeff = q ** i * q_binomial(r, i, zeta)
                bi = d.unit()
                for _ in range(i):
                    bi = d.mul(bi, b)
                right = right + d.mul(bi, nested_right(d, a, b, q, zeta, r - i)).scale(coeff)
            assert left == right
            apow = d.unit()
            for _ in range(r):
                apow = d.mul(apow, a)
            left2 = d.q_commutator(apow, b, q ** r)
            right2 = NCPoly.zero()
            for i in range(r):
                coeff = q ** i * q_binomial(r, i, zeta)
                ai = d.unit()
                for _ in range(i):
                    ai = d.mul(ai, a)
                right2 = right2 + d.mul(nested_left(d, a, b, q, zeta, r - i), ai).scale(coeff)
            assert left2 == right2


def test_restricted_q_leibniz():
    d = generic_datum()
    rng = random.Random(53)
    f = d.field
    for r in (2, 3, 4):
        zeta = f.root(12 // r)  # exact order r
        for _ in range(10):
            a = random_poly(d, rng, max_terms=2, max_letters=1)
            b = random_poly(d, rng, max_terms=2, max_letters=1)
            q = f.root(rng.randrange(12))
            bpow = d.unit()
            for _ in range(r):
                bpow = d.mul(bpow, b)
            assert d.q_commutator(a, bpow, q ** r) == nested_right(d, a, b, q, zeta, r)
            apow = d.unit()
            for _ in range(r):
                apow = d.mul(apow, a)
            assert d.q_commutator(apow, b, q ** r) == nested_left(d, a, b, q, zeta, r)


def test_q_binomial_theorem_in_quantum_plane():
    # with y x = q x y, (x + y)^n expands with Gaussian coefficients
    from pbw.criterion import bracket_table
    from pbw.presets import build_preset
    from pbw.rewrite import build_rules, normal_form

    p = build_preset("quantum_plane", m=12, k=11)  # q12 = zeta^11 = q^(-1), q = zeta
    d = p.datum
    rules = build_rules(d, bracket_table(d))
    q = d.field.root(1)
    x, y = d.letter((1,)), d.letter((2,))
    s = x + y
    for n in range(7):
        lhs = d.unit()
        for _ in range(n):
            lhs = d.mul(lhs, s)
        rhs = NCPoly.zero()
        for i in range(n + 1):
            term = d.unit()
            for _ in range(i):
                term = d.mul(term, x)
            for _ in range(n - i):
                term = d.mul(term, y)
            rhs = rhs + term.scale(q_binomial(n, i, q))
        assert normal_form(rules, lhs) == normal_form(rules, rhs)


def test_expand_superletter():
    d = generic_datum()
    assert d.expand_superletter((1,)) == d.letter((1,))
    q12 = d.q_uv((1,), (2,))
    e12 = d.expand_superletter((1, 2))
    assert e12 == d.monomial(((1,), (2,))) - d.monomial(((2,), (1,))).scale(q12)
    # [112] = [x1, [x1 x2]] with twist q11 q12
    e112 = d.expand_superletter((1, 1, 2))
    x1 = d.letter((1,))
    q11 = d.q_uv((1,), (1,))
    assert e112 == d.mul(x1, e12) - d.mul(e12, x1).scale(q11 * q12)


def test_expand_superletter_multidegree_and_leading_word():
    d = generic_datum()
    for u in lyndon_up_to(2, 6):
        e = d.expand_superletter(u)
        counts = (u.count(1), u.count(2))
        lead = None
        for (U, g), c in e.terms.items():
            letters = tuple(i for w in U for i in w)
            assert g == d.group.identity()
            assert (letters.count(1), letters.count(2)) == counts
            if lead is None or letters < lead[0]:
                lead = (letters, c)
        assert lead[0] == u
        assert lead[1].is_one()


def test_char_and_group_degree():
    d = generic_datum()
    g = d.group.element((1,))
    a = d.monomial(((1,), (2,)), g)
    assert d.char_degree(a) == (5,)
    mixed = d.letter((1,)) + d.letter((2,))
    assert d.char_degree(mixed) is None
    # group-only terms have trivial character degree
    eps = d.unit() - d.group_like(d.group.element((2,)))
    assert d.char_degree(eps) == (0,)
    assert d.group_degree(d.letter((1,))) == d.g[0]
    assert d.group_degree(a) == d.group.mul(d.group.mul(d.g[0], d.g[1]), g)


def test_prec_L_check():
    d = generic_datum()
    W = ((1, 2),)
    shorter = d.monomial(((2,),), (3,))
    assert d.prec_L_check(shorter, W)
    bigger = d.monomial(((2,), (1,)))
    assert d.prec_L_check(bigger, W)
    itself = d.monomial(((1, 2),))
    assert not d.prec_L_check(itself, W)
    # an equal-length term with a group factor is not allowed
    withg = d.monomial(((2,), (1,)), (1,))
    assert not d.prec_L_check(withg, W)
    longer = d.monomial(((1, 2), (1,)))
    assert not d.prec_L_check(longer, W)


def test_partial_delta_single_letter():
    d = generic_datum()
    table = {((1,), (2,)): d.letter((1, 2))}
    # the one-letter case keeps only the replaced leading bracket
    out = _delta(d, table, (1,), d.letter((2,)), (2,))
    assert out == d.letter((1, 2))


def test_partial_delta_group_monomial():
    d = generic_datum()
    tail = (2, 2)
    g = d.group.element((1,))
    out = _delta(d, {}, (1,), d.group_like(g), tail)
    c = d.q_uv((1,), tail) * d.chi_apply(d.chi_word((1,)), g)
    expect = d.monomial(((1,),), g).scale(d.field.one() - c)
    assert out == expect
    # with the twist equal to one the value vanishes: pick g with trivial pairing
    d2 = replace(d, chi=((0,), (2,)))
    out2 = _delta(d2, {}, (1,), d2.group_like(d2.group.identity()), ())
    assert out2.is_zero()


def test_partial_delta_two_letters():
    d = generic_datum()
    table = {((1,), (2,)): d.letter((1, 2))}
    out = _delta(d, table, (1,), d.monomial(((2,), (2,))), (2, 2))
    q12 = d.q_uv((1,), (2,))
    bracket = d.q_commutator(d.letter((1,)), d.letter((2,)), q12)
    expect = d.mul(d.letter((1, 2)), d.letter((2,))) + d.mul(d.letter((2,)), bracket).scale(q12)
    assert out == expect


def taft_like(N=3, conductor=None, group=None, chi=None):
    m = conductor or N
    field = CycloField(m)
    gs = group or GroupSpec((N,))
    red = NCPoly()
    return Datum(
        theta=1, field=field, group=gs,
        g=(gs.element((1,) + (0,) * (gs.nfactors - 1)),),
        chi=(chi or (1,),),
        L=((1,),),
        heights={(1,): N},
        reds={}, redhats={(1,): red},
    )


def test_validate_accepts_taft():
    assert taft_like().validate() == []


def test_validate_flags_bad_height():
    d = replace(taft_like(), heights={(1,): 4})
    assert any("height" in v for v in d.validate())


def test_validate_flags_inhomogeneous_redhat():
    # character of order 9 on the second factor makes chi_1^3 nontrivial
    gs = GroupSpec((3, 9))
    bad = NCPoly()
    f = CycloField(9)
    bad.add_term(((), (0, 0)), f.one())
    bad.add_term(((), (1, 0)), -f.one())
    d = Datum(
        theta=1, field=f, group=gs, g=(gs.element((1, 0)),), chi=((3, 1),),
        L=((1,),), heights={(1,): 3}, reds={}, redhats={(1,): bad},
    )
    assert any("character-homogeneous" in v for v in d.validate())


def test_validate_lists_a_character_of_the_wrong_length():
    # the checks after the character loop read every character in full; a
    # short one raised IndexError there
    from pbw.presets import build_preset

    d = replace(build_preset("uq_sl2").datum, chi=((1,), ()))
    assert d.validate() == ["chi_2 has the wrong number of factor values"]


def test_validate_lists_a_group_element_of_the_wrong_length():
    # q_ij zips g_i against chi_j, so a long g_1 gave wrong q_ij and no
    # violation
    from pbw.presets import build_preset

    d = replace(build_preset("uq_sl2").datum, g=((1, 0), (1,)))
    assert d.validate() == ["g_1 has the wrong number of factor exponents"]


def test_validate_flags_unclosed_L():
    d = generic_datum()
    bad = replace(
        d,
        L=((1,), (1, 1, 2), (2,)),
        heights={(1,): None, (1, 1, 2): None, (2,): None},
    )
    assert any("Shirshov" in v for v in bad.validate())


def test_validate_flags_non_lyndon_member():
    d = generic_datum()
    bad = replace(
        d,
        L=((1,), (2, 1), (2,)),
        heights={(1,): None, (2, 1): None, (2,): None},
    )
    assert any("Lyndon" in v for v in bad.validate())


def test_validate_flags_missing_reds():
    from pbw.presets import build_preset

    d = build_preset("uq_sl2").datum
    assert d.validate() == []
    assert any("reds" in v for v in replace(d, reds={}).validate())
    assert any("redhats" in v for v in replace(d, redhats={}).validate())


def test_validate_flags_shape_violation():
    from pbw.presets import build_preset

    d = build_preset("uq_sl2").datum
    bad = NCPoly()
    bad.add_term((((1,), (2,)), (0,)), d.field.one())  # same length as the target
    assert any("shape" in v for v in replace(d, reds={(1, 2): bad}).validate())


def test_replace_leaves_the_original_datum_intact():
    from pbw.criterion import check_pbw
    from pbw.presets import build_preset

    assert [f.name for f in fields(Datum) if f.init] == [
        "theta", "field", "group", "g", "chi", "L", "heights", "reds", "redhats",
    ]
    d = build_preset("lifting_a2_1b").datum
    expansion = d.expand_superletter((1, 1, 2))
    copy = replace(d, chi=((1,), (3,)))
    assert copy.q_exp((1,), (1,)) == 1
    assert copy.expand_superletter((1, 1, 2)) != expansion
    assert d.q_exp((1,), (1,)) == 3
    assert d.expand_superletter((1, 1, 2)) == expansion
    assert check_pbw(d).passed


def test_format_helpers():
    d = generic_datum()
    mono = (((1,), (1, 2)), (2,))
    assert format_monomial(mono) == "x1*x12*g1^2"
    assert format_monomial(((), d.group.identity())) == "1"
    p = d.monomial(((1,),), (0,)) - d.unit()
    assert format_poly(p) in ("x1 - 1", "-1 + x1")
