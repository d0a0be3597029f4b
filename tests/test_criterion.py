"""The bracket-reduction table, the Jacobi and Leibniz test elements, the
check itself on passing and broken data, and the redundancy toolkit."""

import collections
import itertools
import math
import random
import re
import time
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbw import criterion, oracle
from pbw.algebra import Datum, GroupSpec, NCPoly, format_poly
from pbw.criterion import (
    bracket_table,
    check_pbw,
    forced_power_from_jacobi,
    forced_serre_from_power,
    generic_redundancies,
    jacobi_element,
    leibniz_gt_element,
    leibniz_le_element,
    leibniz_self_element,
    diamond_resolves,
    in_bounded_ideal,
    span_cosets,
)
from pbw.oracle import (
    MAX_ORACLE_COLUMNS,
    MAX_ORACLE_ROWS,
    ColumnKeys,
    Echelon,
    ideal_generators_expanded,
    poly_row,
    quotient_rank,
    span_contains,
)
from pbw.presets import PRESET_NAMES, build_preset
from pbw.rewrite import RuleSystem, build_rules, dimension, normal_form, reduce_bounded
from pbw.scalars import Cyclo, CycloField, PrimeField, format_scalar
from pbw.datumio import datum_from_dict, datum_to_dict
from pbw.words import c_set, greatest_first, prec_cmp, shirshov_decompose, xlen


def rank2_scaffold(m, q11, q12, q21, q22, heights=None):
    """L = {1, 12, 2} with the given bicharacter exponents and zero relation
    right-hand sides, on the group Z/m x Z/m."""
    field = CycloField(m)
    group = GroupSpec((m, m))
    d = Datum(
        theta=2, field=field, group=group,
        g=(group.element((1, 0)), group.element((0, 1))),
        chi=((q11, q21), (q12, q22)),
        L=((1,), (1, 2), (2,)),
        heights=heights or {(1,): None, (1, 2): None, (2,): None},
        reds={(1, 1, 2): NCPoly.zero(), (1, 2, 2): NCPoly.zero()},
        redhats={},
    )
    return d


def test_bracket_table_base_cases():
    d = build_preset("b2_scaffold").datum
    tab = bracket_table(d)
    assert tab[((1,), (2,))] == d.letter((1, 2))
    assert tab[((1,), (1, 2))] == d.letter((1, 1, 2))
    assert tab[((1,), (1, 1, 2))].is_zero()      # red_1112 = 0
    assert tab[((1, 2), (2,))].is_zero()         # red_122 = 0
    assert tab[((1, 1, 2), (1, 2))].is_zero()    # red_11212 = 0


def test_bracket_table_recursion_step():
    d = build_preset("b2_scaffold").datum
    tab = bracket_table(d)
    coeff = d.q_uv((1, 2), (2,)) - d.q_uv((1,), (1, 2))
    assert tab[((1, 1, 2), (2,))] == d.monomial(((1, 2), (1, 2))).scale(coeff)


def test_bracket_table_quantum_plane():
    d = build_preset("quantum_plane").datum
    tab = bracket_table(d)
    assert tab[((1,), (2,))].is_zero()


def test_bracket_entries_respect_the_lower_terms_shape():
    for name in ("uq_sl2", "lifting_a2_2b", "lifting_a2_1b", "b2_scaffold"):
        d = build_preset(name).datum
        for (u, v), entry in bracket_table(d).items():
            assert entry == d.letter(u + v) or d.prec_L_check(entry, (u + v,)), (name, u, v)


def free_heights_datum(m, L, chi1, chi2, reds=None):
    """Rank-two datum over Z/m x Z/m with all heights infinite and the given
    relation right-hand sides (zero where omitted)."""
    from pbw.words import c_set

    field = CycloField(m)
    group = GroupSpec((m, m))
    L = tuple(sorted(tuple(u) for u in L))
    reds = dict(reds or {})
    for w in c_set(L):
        reds.setdefault(w, NCPoly.zero())
    return Datum(
        theta=2, field=field, group=group,
        g=(group.element((1, 0)), group.element((0, 1))),
        chi=(tuple(chi1), tuple(chi2)),
        L=L,
        heights={u: None for u in L},
        reds=reds, redhats={},
    )


def test_bracket_recursion_with_letter_base_case():
    # five letters where 122 is itself a letter: the derivation hits the
    # single-letter base case and pulls in the 1122-relation
    L = [(1,), (1, 1, 2), (1, 2), (1, 2, 2), (2,)]
    d = free_heights_datum(12, L, (2, 5), (3, 7))
    assert d.validate() == []
    assert set(d.reds) == {(1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 2, 1, 2), (1, 2, 1, 2, 2), (1, 2, 2, 2)}
    tab = bracket_table(d)
    coeff = d.q_uv((1, 2), (2,)) - d.q_uv((1,), (1, 2))
    assert tab[((1, 1, 2), (2,))] == d.monomial(((1, 2), (1, 2))).scale(coeff)

    # a nonzero 1122-relation propagates through the same base case
    red = d.monomial(((1, 2), (1, 2))).scale(d.field.from_rational(5))
    d2 = free_heights_datum(12, L, (2, 5), (3, 7), reds={(1, 1, 2, 2): red})
    assert d2.validate() == []
    tab2 = bracket_table(d2)
    assert tab2[((1, 1, 2), (2,))] == red + d.monomial(((1, 2), (1, 2))).scale(coeff)


def test_bracket_recursion_double_derivation():
    # five letters with a length-four member: the entry for (1112, 2) uses
    # the derivation twice; its displayed closed form differs from the raw
    # recursion value exactly by a pair-rule element times x12
    L = [(1,), (1, 1, 1, 2), (1, 1, 2), (1, 2), (2,)]
    d = free_heights_datum(12, L, (2, 5), (3, 7))
    assert d.validate() == []
    assert set(d.reds) == {(1, 1, 1, 1, 2), (1, 1, 1, 2, 1, 1, 2), (1, 1, 2, 1, 2), (1, 2, 2)}
    tab = bracket_table(d)
    q = d.q_uv
    q11, q12, q22 = q((1,), (1,)), q((1,), (2,)), q((2,), (2,))
    one = d.field.one()
    closed = d.monomial(((1, 1, 2), (1, 2))).scale(q12 * (q22 - q11 - q11 * q11))
    closed = closed + d.monomial(((1, 2), (1, 1, 2))).scale(
        q12 * q12 * (q11 * (q22 - q11) + q22)
    )
    pair_elem = (
        d.monomial(((1,), (1, 2)))
        - d.monomial(((1, 2), (1,))).scale(q((1,), (1, 2)))
        - d.letter((1, 1, 2))
    )
    c = q((1,), (1, 2)) * (q((1, 2), (2,)) - q((1,), (1, 2)))
    expected = closed + d.mul(d.letter((1, 2)), pair_elem).scale(c)
    assert tab[((1, 1, 1, 2), (2,))] == expected
    # and the companion entry with the squared middle letter; the recursion
    # coefficient pairs 112 with the right argument 12
    coeff = q((1, 1, 2), (1, 2)) - q((1,), (1, 1, 2))
    assert tab[((1, 1, 1, 2), (1, 2))] == d.monomial(((1, 1, 2), (1, 1, 2))).scale(coeff)


def letterwise_bracket_table(datum):
    """Reference for bracket_table: the recursion with delta_{u1} expanded
    letter by letter, one twisted bracket [x_{u1}, x_{U_i}] per position."""
    pairs = sorted(
        ((u, v) for u in datum.L for v in datum.L if u < v),
        key=lambda p: (len(p[0]), p[0], p[1]),
    )
    table = {}

    def delta(u1, a, tail):
        out = NCPoly.zero()
        x_u1 = datum.letter(u1)
        for (U, g), c in a.terms.items():
            lu = xlen(U)
            assert lu <= len(tail)
            if U and lu == len(tail):
                assert g == datum.group.identity()
                out = out + datum.mul(table[(u1, U[0])], datum.monomial(U[1:])).scale(c)
                tw = 0
                for i in range(1, len(U)):
                    tw = (tw + datum.q_exp(u1, U[i - 1])) % datum.field.unit_order
                    br = datum.q_commutator(x_u1, datum.letter(U[i]), datum.q_uv(u1, U[i]))
                    piece = reduce(datum.mul, [datum.monomial(U[:i]), br, datum.monomial(U[i + 1:])])
                    out = out + piece.scale(c * datum.field.root(tw))
            else:
                twist = datum.q_uv(u1, tail) * datum.chi_apply(datum.chi_word(u1), g)
                br = datum.q_commutator(x_u1, datum.monomial(U), twist)
                out = out + datum.mul(br, datum.group_like(g)).scale(c)
        return out

    for u, v in pairs:
        w = u + v
        if shirshov_decompose(w) == (u, v):
            table[(u, v)] = datum.letter(w) if w in datum.L else datum.reds[w].copy()
        else:
            u1, u2 = shirshov_decompose(u)
            t = delta(u1, table[(u2, v)], u2 + v)
            t = t + datum.mul(table[(u1, v)], datum.letter(u2)).scale(datum.q_uv(u2, v))
            t = t - datum.mul(datum.letter(u2), table[(u1, v)]).scale(datum.q_uv(u1, u2))
            table[(u, v)] = t
    return table


def b2_scaffold_variants(count, seed):
    """Valid b2_scaffold data whose every relation right-hand side is a
    random nonzero combination of admissible monomials, one of them with a
    nontrivial group part; full-length monomials of red_122 run the
    full-length branch of the bracket recursion."""
    base = build_preset("b2_scaffold").datum
    words, layer = [], [()]
    while layer:
        layer = [U + (u,) for U in layer for u in base.L if xlen(U) + len(u) <= 5]
        words += layer
    admissible = {}
    for w in base.reds:
        monos = [
            (U, g) for U in [()] + words for g in base.group.elements()
            if base.chi_eq(base.word_chi(U), base.chi_word(w))
            and base.prec_L_check(NCPoly({(U, g): base.field.one()}), (w,))
        ]
        admissible[w] = sorted(monos)
    rng = random.Random(seed)
    identity = base.group.identity()
    for _ in range(count):
        reds = {}
        for w, monos in sorted(admissible.items()):
            first = rng.choice([m for m in monos if m[1] != identity])
            chosen = [first] + [m for m in rng.sample(monos, rng.randint(0, 3)) if m != first]
            reds[w] = NCPoly({
                m: base.field.root(rng.randrange(5)) if rng.random() < 0.6 else base.field.from_rational(rng.randint(1, 4))
                for m in chosen
            })
        d = replace(base, reds=reds)
        assert d.validate() == []
        yield d


def test_bracket_table_matches_the_letterwise_recursion():
    data = [build_preset(name).datum for name in PRESET_NAMES]
    data += list(b2_scaffold_variants(200, seed=10))
    full_length = 0
    for d in data:
        full_length += any(xlen(U) == 3 for U, _ in d.reds.get((1, 2, 2), NCPoly()).terms)
        got, ref = bracket_table(d), letterwise_bracket_table(d)
        assert list(got) == list(ref)
        for key, entry in ref.items():
            assert list(got[key].terms.items()) == list(entry.terms.items()), key
    assert full_length >= 50


def test_jacobi_element_reduces_to_coefficient_times_square():
    # q11 != q22 so the square survives with the displayed coefficient
    d = rank2_scaffold(12, q11=4, q12=1, q21=1, q22=6)
    tab = bracket_table(d)
    rules = build_rules(d, tab)
    J = jacobi_element(d, tab, (1,), (1, 2), (2,))
    red = reduce_bounded(rules, J, ((1,), (1, 2), (2,)))
    coeff = d.q_uv((1,), (1, 2)) - d.q_uv((1, 2), (2,))
    assert not coeff.is_zero()
    assert red == d.monomial(((1, 2), (1, 2))).scale(coeff)


def test_jacobi_element_vanishes_under_equal_diagonal():
    d = rank2_scaffold(3, q11=1, q12=2, q21=2, q22=1)  # q11 = q22, Cartan-like
    tab = bracket_table(d)
    rules = build_rules(d, tab)
    J = jacobi_element(d, tab, (1,), (1, 2), (2,))
    assert reduce_bounded(rules, J, ((1,), (1, 2), (2,))).is_zero()


def test_jacobi_classical_degeneration():
    # all q = 1 and zero right-hand sides over a trivial group: J reduces to
    # zero like the classical Jacobi identity
    field = CycloField(1)
    group = GroupSpec(())
    d = Datum(
        theta=2, field=field, group=group, g=((), ()), chi=((), ()),
        L=((1,), (1, 2), (2,)),
        heights={(1,): None, (1, 2): None, (2,): None},
        reds={(1, 1, 2): NCPoly.zero(), (1, 2, 2): NCPoly.zero()},
        redhats={},
    )
    tab = bracket_table(d)
    rules = build_rules(d, tab)
    J = jacobi_element(d, tab, (1,), (1, 2), (2,))
    assert reduce_bounded(rules, J, ((1,), (1, 2), (2,))).is_zero()


def test_jacobi_element_in_pair_ideal_on_passing_presets():
    for name in ("lifting_a2_1a", "lifting_a2_2b", "b2_scaffold"):
        d = build_preset(name).datum
        tab = bracket_table(d)
        rules = build_rules(d, tab)
        members = sorted(d.L)
        for i, u in enumerate(members):
            for j in range(i + 1, len(members)):
                for k in range(j + 1, len(members)):
                    J = jacobi_element(d, tab, u, members[j], members[k])
                    assert normal_form(rules, J).is_zero(), (name, u, members[j], members[k])


def test_leibniz_self_examples():
    d = build_preset("taft").datum
    assert leibniz_self_element(d, (1,)).is_zero()
    d = build_preset("radford", N=2).datum
    # -[1 - g^2, x1] evaluates to (q^2 - 1) x1 g^2 = 0 at ord q = 2
    assert leibniz_self_element(d, (1,)).is_zero()


def test_leibniz_self_element_is_the_q_commutator():
    # the term-by-term bracket gives the terms, in their order, of the two
    # smash products of -[redhat_u, x_u]_1
    data = [build_preset(name).datum for name in PRESET_NAMES]
    data += [build_preset("uq_sl2", N=N).datum for N in (5, 7, 9)]
    checked = nonzero = 0
    for d in data:
        for u in d.d_set():
            expected = -d.q_commutator(d.redhats[u], d.letter(u), d.field.one())
            assert list(leibniz_self_element(d, u).terms.items()) == list(expected.terms.items()), u
            checked += 1
            nonzero += not expected.is_zero()
    assert checked == 49 and nonzero == 7


def test_leibniz_le_lifting_cancellation():
    d = build_preset("lifting_a1xa1", N=2).datum
    tab = bracket_table(d)
    elem = leibniz_le_element(d, tab, (1,), (2,))
    rules = build_rules(d, tab)
    c = next(c for c in criterion._conditions(d, tab, "full") if c.condition_id == "leibniz(1;1<2)")
    assert c.bound == ((1,), (1,), (2,))
    member, residue, fb = in_bounded_ideal(rules, elem, c.bound, c.sites)
    assert member and residue.is_zero() and not fb


def nested_leibniz_reference(datum, table, kind, a, b):
    """The element of leibniz_le_element (kind "le", a = u < v = b) or of
    leibniz_gt_element (kind "gt", a = v < u = b) as N_u - 1 nested
    q-commutators, two Datum.mul products per step, minus the hat bracket."""
    u, v = (a, b) if kind == "le" else (b, a)
    n = datum.heights[u]
    xu, xv = datum.letter(u), datum.letter(v)
    q, quu = datum.q_exp(a, b), datum.q_exp(u, u)
    acc = table[(a, b)].copy()
    for k in range(1, n):
        root = datum.field.root(q + k * quu)
        acc = datum.q_commutator(xu, acc, root) if kind == "le" else datum.q_commutator(acc, xu, root)
    qn = datum.field.root(n * q)
    if kind == "le":
        return acc - datum.q_commutator(datum.redhats[u], xv, qn)
    return acc - datum.q_commutator(xv, datum.redhats[u], qn)


def leibniz_pairs(datum):
    """(kind, a, b) for every restricted Leibniz element with a table entry."""
    for u in datum.d_set():
        for v in datum.L:
            if v > u:
                yield "le", u, v
            elif v < u:
                yield "gt", v, u


def closed_and_nested(datum, table=None):
    """(kind, a, b, closed form, nested reference) for every Leibniz pair."""
    table = bracket_table(datum) if table is None else table
    for kind, a, b in leibniz_pairs(datum):
        build = leibniz_le_element if kind == "le" else leibniz_gt_element
        yield kind, a, b, build(datum, table, a, b), nested_leibniz_reference(datum, table, kind, a, b)


def assert_closed_form_is_the_nested_products(datum, table=None):
    """Equal in value; returns the number of elements."""
    count = 0
    for kind, a, b, got, want in closed_and_nested(datum, table):
        assert got == want, (kind, a, b)
        count += 1
    return count


def a2_nichols(N, group=None):
    """A2 Nichols data at ord q = N (odd): q_11 = q_22 = zeta^2,
    q_12 = q_21 = zeta^-1, all heights N, zero reds and redhats; the group
    is Z_N^2 unless given."""
    group = group or GroupSpec((N, N))
    return Datum(
        theta=2, field=CycloField(N), group=group,
        g=(group.element((1, 0)), group.element((0, 1))),
        chi=((2, N - 1), (N - 1, 2)),
        L=((1,), (1, 2), (2,)),
        heights={(1,): N, (1, 2): N, (2,): N},
        reds={(1, 1, 2): NCPoly.zero(), (1, 2, 2): NCPoly.zero()},
        redhats={(1,): NCPoly.zero(), (1, 2): NCPoly.zero(), (2,): NCPoly.zero()},
    )


def fp_rank2(p, a11, a22, N1, N2):
    """Rank two over F_p on Z_(p-1)^2 with q_11 = zeta^a11, q_22 = zeta^a22,
    q_12 = q_11^-1 and q_21 = q_22^-1, L = {1, 2}, and redhats with group
    parts that x_1 and x_2 pass with a nontrivial twist.  The redhats are
    not homogeneous: only the heights matter to the Leibniz elements."""
    f, m = PrimeField(p), p - 1
    group = GroupSpec((m, m))
    one = f.one()

    def poly(*terms):
        out = NCPoly()
        for word, g, c in terms:
            out.add_term((tuple((i,) for i in word), group.element(g)), f.element(c))
        return out

    return Datum(
        theta=2, field=f, group=group,
        g=(group.element((1, 0)), group.element((0, 1))),
        chi=((a11, -a22 % m), (-a11 % m, a22)),
        L=((1,), (2,)),
        heights={(1,): N1, (2,): N2},
        reds={(1, 2): NCPoly.zero()},
        redhats={(1,): poly(((2,), (1, 0), 1), ((), (1, 1), 2)), (2,): poly(((1,), (0, 1), 1), ((), (1, 0), 3))},
    ), poly


FP_RANK2 = [(7, 2, 3, 3, 2), (5, 1, 2, 4, 2), (3, 1, 0, 2, 1)]  # p, a11, a22, ord q_11, ord q_22


def test_leibniz_closed_form_is_the_nested_products_on_the_presets():
    count = 0
    for name in PRESET_NAMES:
        count += assert_closed_form_is_the_nested_products(build_preset(name).datum)
    assert count >= 40


@pytest.mark.parametrize("N", [3, 5, 11, 31])
def test_leibniz_closed_form_is_the_nested_products_on_a2_nichols(N):
    assert assert_closed_form_is_the_nested_products(a2_nichols(N)) == 6


@pytest.mark.parametrize("p,a11,a22,o1,o2", FP_RANK2)
@pytest.mark.parametrize("power", [0, 1, 2])
def test_leibniz_closed_form_is_the_nested_products_over_a_prime_field(p, a11, a22, o1, o2, power):
    """Heights ord, p ord and p^2 ord: past ord q_uu the nested products drop
    and re-place terms, and the closed form has their value."""
    k = p**power
    d, poly = fp_rank2(p, a11, a22, o1 * k, o2 * k)
    for u, qexp in (((1,), d.q_exp((1,), (2,))), ((2,), d.q_exp((1,), (2,)))):
        assert criterion._nested_weights(d, u, qexp) is None  # the closed form
    # chi_1(g1) and chi_2(g1) are nontrivial: every term of T has a twist
    # to pass, and its words share no core x_u^a Y x_u^b between terms
    T = poly(((2,), (1, 0), 1), ((1, 2), (1, 1), 2), ((), (0, 1), 3), ((2, 1, 2), (0, 0), 4), ((1, 1), (1, 0), 1))
    assert d.chi_apply_exp(d.chi[0], (1, 0)) and d.chi_apply_exp(d.chi[1], (1, 0))
    assert assert_closed_form_is_the_nested_products(d, {((1,), (2,)): T}) == 2


@pytest.mark.parametrize("p,a11,a22,o1,o2", FP_RANK2)
def test_leibniz_closed_form_has_the_value_of_the_nested_products_on_shared_words(p, a11, a22, o1, o2):
    """Terms x_u^a Y x_u^b g of T with one Y and one g share words.  Past
    ord q_uu in characteristic p a partial product can cancel such a word
    and place it again later, so only the values must agree."""
    rng = random.Random(p)
    for k in (1, p, p * p):
        d, poly = fp_rank2(p, a11, a22, o1 * k, o2 * k)
        for _ in range(5):
            terms = [
                (tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3))), (rng.randrange(p - 1), rng.randrange(p - 1)), rng.randrange(1, p))
                for _ in range(rng.randint(1, 5))
            ]
            for _kind, _a, _b, got, want in closed_and_nested(d, {((1,), (2,)): poly(*terms)}):
                assert got == want


def test_leibniz_closed_form_replays_the_products_at_an_unvalidated_height():
    """uq_sl2 with height 2 at x1, where ord q_11 = 3: the weights come from
    the recurrence, at validate's heights from the closed form."""
    d = build_preset("uq_sl2").datum
    d = replace(d, heights={(1,): 2, (2,): 3})
    assert d.validate() != []
    assert criterion._nested_weights(d, (1,), d.q_exp((1,), (2,))) is not None
    assert criterion._nested_weights(d, (2,), d.q_exp((1,), (2,))) is None
    assert assert_closed_form_is_the_nested_products(d) == 2


@pytest.mark.parametrize("heights", [(5, 3), (3, 7), (8, 4)])
def test_leibniz_closed_form_replays_the_vanishing_partial_products(heights):
    """Heights above ord q_uu = 3 that validate refuses: the partial
    products lose the words whose Gaussian binomials vanish and place them
    again later, over Q(zeta_3) and over F_7; the recurrence's weights give
    the same value."""
    d = replace(build_preset("uq_sl2").datum, heights={(1,): heights[0], (2,): heights[1]})
    assert assert_closed_form_is_the_nested_products(d) == 2
    d, poly = fp_rank2(7, 2, 2, *heights)
    T = poly(((2,), (1, 0), 1), ((1, 2), (1, 1), 2), ((), (0, 1), 3), ((2, 1, 2), (0, 0), 4))
    assert assert_closed_form_is_the_nested_products(d, {((1,), (2,)): T}) == 2


def test_a2_nichols_at_height_301_is_checked_in_seconds():
    d = a2_nichols(301)
    start = time.perf_counter()
    report = check_pbw(d)
    elapsed = time.perf_counter() - start
    assert report.passed and len(report.conditions) == 10
    assert not any(c.used_diamond for c in report.conditions)
    assert elapsed < 2.0, elapsed


def test_check_pbw_passes_all_presets_both_modes():
    for name in PRESET_NAMES:
        d = build_preset(name).datum
        full = check_pbw(d, mode="full")
        reduced = check_pbw(d, mode="reduced")
        assert full.passed and reduced.passed, name
        assert len(reduced.conditions) <= len(full.conditions)


# The order in which check_pbw reports its conditions, by alphabet L: the
# Jacobi triples, then the Leibniz conditions at each u of finite height.
_A1 = "leibniz(1;1=1)"
_A1XA1 = "leibniz(1;1=1) leibniz(1;1<2) leibniz(2;2=2) leibniz(2;1<2)"
_A2_FULL = (
    "jacobi(1<12<2) leibniz(1;1=1) leibniz(1;1<12) leibniz(1;1<2) leibniz(12;12=12) leibniz(12;1<12)"
    " leibniz(12;12<2) leibniz(2;2=2) leibniz(2;1<2) leibniz(2;12<2)"
)
_A2_REDUCED = (
    "jacobi(1<12<2) leibniz(1;1=1) leibniz(1;1<2) leibniz(12;12=12) leibniz(12;1<12) leibniz(12;12<2)"
    " leibniz(2;2=2) leibniz(2;1<2)"
)
_B2_FULL = (
    "jacobi(1<112<12) jacobi(1<112<2) jacobi(1<12<2) jacobi(112<12<2) leibniz(1;1=1) leibniz(1;1<112)"
    " leibniz(1;1<12) leibniz(1;1<2) leibniz(112;112=112) leibniz(112;1<112) leibniz(112;112<12)"
    " leibniz(112;112<2) leibniz(12;12=12) leibniz(12;1<12) leibniz(12;112<12) leibniz(12;12<2)"
    " leibniz(2;2=2) leibniz(2;1<2) leibniz(2;112<2) leibniz(2;12<2)"
)
_B2_REDUCED = (
    "jacobi(1<112<12) jacobi(1<112<2) jacobi(112<12<2) leibniz(1;1=1) leibniz(1;1<2) leibniz(112;112=112)"
    " leibniz(112;1<112) leibniz(112;112<12) leibniz(112;112<2) leibniz(12;12=12) leibniz(12;1<12)"
    " leibniz(12;12<2) leibniz(2;2=2) leibniz(2;1<2) leibniz(2;112<2)"
)
_CONDITION_ORDER = {  # preset: (full mode, reduced mode)
    "taft": (_A1, _A1),
    "radford": (_A1, _A1),
    "nichols_a1": (_A1, _A1),
    "lifting_a1": (_A1, _A1),
    "book": (_A1XA1, _A1XA1),
    "uq_sl2": (_A1XA1, _A1XA1),
    "nichols_a1xa1": (_A1XA1, _A1XA1),
    "lifting_a1xa1": (_A1XA1, _A1XA1),
    "quantum_plane": ("", ""),
    "weyl": ("", ""),
    "b2_scaffold": (_B2_FULL, _B2_REDUCED),
    "lifting_a2_1a": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_1b": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_1c": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_2a": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_2b": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_3a": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_3b": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_4a": (_A2_FULL, _A2_REDUCED),
    "lifting_a2_4b": (_A2_FULL, _A2_REDUCED),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_condition_order_is_pinned(name):
    full, reduced = _CONDITION_ORDER[name]
    d = build_preset(name).datum
    for mode, expected in (("full", full), ("reduced", reduced)):
        assert [c.condition_id for c in check_pbw(d, mode).conditions] == expected.split(), mode


def test_reduced_mode_drops_the_documented_conditions():
    # three-letter alphabet: the Jacobi triple survives (112 is not a
    # member), the Leibniz conditions at concatenations are dropped
    d = build_preset("lifting_a2_1a").datum
    full = {c.condition_id for c in check_pbw(d, mode="full").conditions}
    reduced = {c.condition_id for c in check_pbw(d, mode="reduced").conditions}
    assert "jacobi(1<12<2)" in full and "jacobi(1<12<2)" in reduced
    assert "leibniz(1;1<12)" in full and "leibniz(1;1<12)" not in reduced
    assert "leibniz(2;12<2)" in full and "leibniz(2;12<2)" not in reduced
    assert "leibniz(1;1<2)" in reduced
    assert "leibniz(12;1<12)" in reduced  # kept: 1 is not of the form t + 12
    assert "leibniz(12;12<2)" in reduced

    # four-letter alphabet: 112 = 1 * 12 is a member, so its Jacobi triples
    # are dropped
    d = build_preset("b2_scaffold").datum
    full = {c.condition_id for c in check_pbw(d, mode="full").conditions}
    reduced = {c.condition_id for c in check_pbw(d, mode="reduced").conditions}
    assert "jacobi(1<12<2)" in full and "jacobi(1<12<2)" not in reduced
    assert "jacobi(1<112<2)" in reduced
    assert "jacobi(1<112<12)" in reduced
    assert "jacobi(112<12<2)" in reduced


def tampered_uq_sl2(N=3, c=1):
    d = build_preset("uq_sl2", N=N).datum
    bad = NCPoly()
    bad.add_term(((), (0,)), d.field.from_rational(c))
    bad.add_term(((), (1,)), d.field.from_rational(-c))  # c (1 - g) instead of 1 - g^2
    return replace(d, reds={(1, 2): bad})


def test_tampered_datum_fails_with_witness():
    d = tampered_uq_sl2()
    assert d.validate() == []  # still homogeneous and well-shaped
    rep = check_pbw(d)
    assert not rep.passed
    failing = [c for c in rep.conditions if c.passed is False]
    assert len(failing) == 1 and failing[0].residue_terms > 0
    assert failing[0].used_diamond  # the diamond confirmed
    # equivalence with the dimension drop
    count = dimension(d)
    assert quotient_rank(d, margin=2) < count


def tampered_lifting_a1xa1(N=2, c=1):
    d = build_preset("lifting_a1xa1", N=N).datum
    bad = NCPoly()
    bad.add_term(((), (0, 0)), d.field.from_rational(c))
    bad.add_term(((), (1, 0)), d.field.from_rational(-c))  # c (1 - g1) instead of 1 - g1 g2
    return replace(d, reds={(1, 2): bad})


def span_reference(rs, element, bound):
    """The exact span test that the diamond is held against: membership of
    element in the placements below the bound, built in its span cosets
    only.  The span functions are looked up on the module, so that a test
    can record their calls."""
    span = criterion.bounded_span_elements(rs, bound, span_cosets(rs, element))
    return criterion.span_contains(span, element)


def span_reference_check(datum, mode="full"):
    """The verdict of each condition of check_pbw, in its order, with a
    nonzero bounded residue decided by span_reference (finite groups only)."""
    table = bracket_table(datum)
    rs = build_rules(datum, table)
    return [
        reduce_bounded(rs, c.element, c.bound).is_zero() or span_reference(rs, c.element, c.bound)
        for c in criterion._conditions(datum, table, mode)
    ]


def span_elements_by_multiplication(rs, bound, cosets=None):
    """Reference for bounded_span_elements, built by smash-product
    multiplication: a*(lhs - rhs)*b*h for every rule, every pair of word
    contexts with a*lhs*b below the bound, and every group element h; with
    cosets, only the h in them."""
    d = rs.datum
    words, frontier = [()], [()]
    while frontier:
        frontier = [w + (l,) for w in frontier for l in sorted(d.L) if xlen(w) + len(l) <= xlen(bound)]
        words.extend(frontier)
    out = []
    for lhs, rhs in rs.rules.items():
        elem = d.monomial(lhs) - rhs
        for a in words:
            for b in words:
                U = a + lhs + b
                if xlen(U) <= xlen(bound) and prec_cmp(U, bound) < 0:
                    placed = d.mul(d.mul(d.monomial(a), elem), d.monomial(b))
                    hs = [h for h in d.group.elements() if cosets is None or h in cosets]
                    out.extend(d.mul(placed, d.group_like(h)) for h in hs)
    return out


def test_bounded_span_places_rule_elements_as_multiplication_does(monkeypatch):
    calls = []
    original = criterion.bounded_span_elements

    def recording(rs, bound, cosets=None):
        out = original(rs, bound, cosets)
        calls.append((rs, bound, cosets, out))
        return out

    monkeypatch.setattr(criterion, "bounded_span_elements", recording)
    for d in (tampered_uq_sl2(), tampered_lifting_a1xa1()):
        before = len(calls)
        assert not check_pbw(d).passed
        assert not all(span_reference_check(d))
        assert len(calls) > before  # the span reference decided some condition
        # the unfiltered span, once per datum
        rs, bound = calls[before][:2]
        assert original(rs, bound) == span_elements_by_multiplication(rs, bound), bound
    for rs, bound, cosets, out in calls:
        assert cosets is not None
        assert out == span_elements_by_multiplication(rs, bound, cosets), bound


@pytest.mark.parametrize(
    "make,N,index",
    [(tampered_lifting_a1xa1, 2, 2), (tampered_lifting_a1xa1, 3, 3), (tampered_uq_sl2, 3, 1), (tampered_uq_sl2, 5, 1)],
    ids=["lifting_a1xa1-2", "lifting_a1xa1-3", "uq_sl2-3", "uq_sl2-5"],
)
def test_span_coset_filter_keeps_the_placements_that_meet_the_target(monkeypatch, make, N, index):
    # the span reference builds exactly the placements that have a group
    # part in a coset of H holding a group part of the target, in their
    # order; H is generated by the rule elements' group parts and has index
    # [G:H] = index
    spans, tests = [], []
    build, contains = criterion.bounded_span_elements, criterion.span_contains

    def recording_build(rs, bound, cosets=None):
        out = build(rs, bound, cosets)
        spans.append((rs, bound, out))
        return out

    def recording_contains(elements, target):
        tests.append((elements, target))
        return contains(elements, target)

    monkeypatch.setattr(criterion, "bounded_span_elements", recording_build)
    monkeypatch.setattr(criterion, "span_contains", recording_contains)
    d = make(N)
    assert not check_pbw(d).passed
    assert not all(span_reference_check(d))
    assert spans and len(spans) == len(tests)
    for (rs, bound, out), (elements, target) in zip(spans, tests):
        assert elements is out
        group = rs.datum.group
        gens = {g for lhs, rhs in rs.rules.items() for _U, g in (rs.datum.monomial(lhs) - rhs).terms}
        H = {group.identity()}
        while True:
            grown = H | {group.mul(h, g) for h in H for g in gens}
            if grown == H:
                break
            H = grown
        assert len(H) * index == group.order()
        meet = {group.mul(g, h) for _U, g in target.terms for h in H}
        unfiltered = build(rs, bound)
        kept = [e for e in unfiltered if any(g in meet for _U, g in e.terms)]
        assert out == kept
        if index == 1:
            assert out == unfiltered
        else:
            assert len(out) < len(unfiltered)


def test_span_placements_are_counted_before_the_limit(monkeypatch):
    # the count is every (lhs, a, b) with a*lhs*b no longer than the bound,
    # and exactly MAX_SPAN_PLACEMENTS of them are still built
    d = tampered_uq_sl2(N=5)
    table = bracket_table(d)
    rs = build_rules(d, table)
    bounds = {c.bound for c in criterion._conditions(d, table, "full")}
    assert len(bounds) == 4
    for bound in sorted(bounds):
        words, frontier = [()], [()]
        while frontier:
            frontier = [w + (l,) for w in frontier for l in d.L if xlen(w) + len(l) <= xlen(bound)]
            words.extend(frontier)
        count = sum(xlen(a + lhs + b) <= xlen(bound) for lhs in rs.rules for a in words for b in words)
        monkeypatch.setattr(criterion, "MAX_SPAN_PLACEMENTS", count)
        criterion.bounded_span_elements(rs, bound)
        monkeypatch.setattr(criterion, "MAX_SPAN_PLACEMENTS", count - 1)
        with pytest.raises(ValueError, match=f"needs {count} placements"):
            criterion.bounded_span_elements(rs, bound)


def unpruned_membership(rs, element, bound):
    """Membership of element in the span of every rule element placed below
    the bound, by plain elimination with no pruning."""
    ech = Echelon()
    for e in criterion.bounded_span_elements(rs, bound):
        ech.insert(poly_row(e))
    return ech.contains(poly_row(element))


def test_pruned_span_agrees_with_unpruned_elimination():
    # the span filtered by the target's cosets, then pruned to the linked
    # elements, decides as plain elimination of the whole span on
    # every condition of every preset with a finite group, in both modes, and
    # of the acceptance tamperings, whether or not bounded reduction already
    # settles it; the unpruned span grows exponentially in the bound, so only
    # bounds of at most 4 letters are compared (81 conditions, every
    # tampered one among them; the coset filter drops group elements on 71)
    from test_acceptance import tampered_instances

    data = [(name, build_preset(name).datum) for name in PRESET_NAMES]
    data += [(desc, d) for desc, d, _margin in tampered_instances()]
    outcomes = set()
    for desc, d in data:
        if not d.group.is_finite():
            continue
        table = bracket_table(d)
        rs = build_rules(d, table)
        conditions = {}
        for mode in ("full", "reduced"):
            for c in criterion._conditions(d, table, mode):
                conditions[(c.kind, c.words)] = c.element, c.bound
        for key, (element, bound) in conditions.items():
            if xlen(bound) > 4:
                continue
            span = criterion.bounded_span_elements(rs, bound, span_cosets(rs, element))
            pruned = span_contains(span, element)
            assert pruned == unpruned_membership(rs, element, bound), (desc, key)
            outcomes.add((pruned, d.char_degree(element) is not None))
    assert outcomes == {(True, True), (True, False), (False, True)}


def test_span_degree_guard_falls_back_on_an_unvalidated_datum():
    # red_12 = x1 has the character of x1, not of x1 x2: the datum is invalid,
    # check_pbw runs on it anyway, and the rule element of 12 is inhomogeneous,
    # so a placement can share monomials of several degrees; check_pbw and
    # the span reference still agree with unpruned membership
    d = build_preset("uq_sl2").datum
    d = replace(d, reds={(1, 2): d.letter((1,))})
    assert "red_12 is not character-homogeneous of the required degree" in d.validate()
    table = bracket_table(d)
    rs = build_rules(d, table)
    rep = check_pbw(d)
    reference = span_reference_check(d)
    for c, ref in zip(rep.conditions, reference, strict=True):
        if c.passed is None:
            continue
        member = reduce_bounded(rs, c.element, c.bound).is_zero() or unpruned_membership(rs, c.element, c.bound)
        assert c.passed == member == ref, c.condition_id
    assert any(c.used_diamond for c in rep.conditions)  # a nonzero residue was decided
    assert not rep.passed


def a3_nichols(N, tamper=None):
    """A3 Nichols data at ord q = N (odd): theta = 3, L = {1, 12, 123, 2,
    23, 3}, q_ij = zeta^(a_ij) for the A3 Cartan matrix, G = Z_N^3 with the
    generators g_i, all heights N, zero reds on the nine words of C(L) and
    zero redhats.  tamper names one of A3_TAMPERINGS, a red set to one
    term of its own degree."""
    group = GroupSpec((N, N, N))
    cartan = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    L = ((1,), (1, 2), (1, 2, 3), (2,), (2, 3), (3,))
    d = Datum(
        theta=3, field=CycloField(N), group=group,
        g=tuple(group.element(tuple(int(i == j) for j in range(3))) for i in range(3)),
        chi=tuple(tuple(a % N for a in row) for row in cartan),
        L=L,
        heights={u: N for u in L},
        reds={w: NCPoly.zero() for w in c_set(L)},
        redhats={u: NCPoly.zero() for u in L},
    )
    if tamper is None:
        return d
    word, term, c = A3_TAMPERINGS[tamper]
    return replace(d, reds=d.reds | {word: NCPoly({(term, group.identity()): d.field.from_rational(c)})})


# name -> (red word, word of its one term, coefficient)
A3_TAMPERINGS = {
    "red_112": ((1, 1, 2), ((2,), (1,), (1,)), -1),        # -x2 x1 x1
    "red_13": ((1, 3), ((3,), (1,)), 2),                    # 2 x3 x1
    "red_1123": ((1, 1, 2, 3), ((2, 3), (1,), (1,)), -1),   # -x23 x1 x1
}


@pytest.mark.parametrize("N", [3, 5, 7])
def test_a3_nichols_passes_in_both_modes(N):
    d = a3_nichols(N)
    assert d.validate() == []
    for mode, count in (("full", 56), ("reduced", 45)):
        report = check_pbw(d, mode)
        assert report.passed and len(report.conditions) == count, mode
        assert not any(c.used_diamond for c in report.conditions)


# the least failing condition of each A3 tampering, at every N
_A3_LEAST_FAILING = {
    "red_112": "jacobi(1<12<3)",
    "red_13": "jacobi(12<2<3)",
    "red_1123": "jacobi(1<12<3)",
}


@pytest.mark.parametrize("tamper", sorted(A3_TAMPERINGS))
@pytest.mark.parametrize("N", [3, 5, 7])
def test_a3_tamperings_are_decided_fail(N, tamper):
    # the span reference decides only red_112 and red_13 at N = 3; it
    # refuses red_1123 at N = 3 (1,427,330 placements) and all three at
    # N = 5 (5.0 M to 4.8 G placements)
    d = a3_nichols(N, tamper)
    assert d.validate() == []
    report = check_pbw(d)
    assert not report.passed
    failing = [c for c in report.conditions if c.passed is False]
    assert [c.condition_id for c in failing] == [_A3_LEAST_FAILING[tamper]]
    assert failing[0].used_diamond


def count_element_builds(monkeypatch):
    """Wrap the four element functions on pbw.criterion so that each call
    is counted; returns the counter, keyed by function name."""
    built = collections.Counter()
    for name in ("jacobi_element", "leibniz_le_element", "leibniz_self_element", "leibniz_gt_element"):
        def counted(*args, _fn=getattr(criterion, name), _name=name):
            built[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(criterion, name, counted)
    return built


def test_only_the_decided_conditions_build_their_elements(monkeypatch):
    # A3 N = 9 with red_13 = 2 x3 x1: the least failing condition has a
    # 4-letter bound, so only it and the two conditions below it are
    # decided, and the other 53 of the 56 elements are never built
    d = a3_nichols(9, "red_13")
    built = count_element_builds(monkeypatch)
    report = check_pbw(d)
    assert built == {"jacobi_element": 3}
    assert [c.line() for c in report.conditions if c.passed is not None] == [
        "jacobi(1<2<3): pass",
        "jacobi(12<2<3): FAIL, diamond, residue terms: 2",
        "jacobi(2<23<3): pass",
    ]
    assert report.lines()[-1] == "verdict: FAIL (full mode, 56 conditions)"
    assert sum(line.endswith(": not decided") for line in report.lines()) == 53
    assert all(("element" in vars(c)) == (c.passed is not None) for c in report.conditions)
    # an element read after the check is built then, as the eager build made it
    c = report.conditions[-1]
    assert c.kind == "leibniz_gt" and c.passed is None
    assert c.element == criterion.leibniz_gt_element(d, report.table, *c.words)
    assert built == {"jacobi_element": 3, "leibniz_gt_element": 2}


def test_a_value_error_while_building_an_element_names_the_condition(monkeypatch):
    def broken(*args):
        raise ValueError("cannot build")

    monkeypatch.setattr(criterion, "jacobi_element", broken)
    with pytest.raises(ValueError, match=r"^jacobi\(1<2<3\): cannot build$"):
        check_pbw(a3_nichols(3))


def test_every_condition_of_the_presets_builds_its_element(monkeypatch):
    built = count_element_builds(monkeypatch)
    for name in PRESET_NAMES:
        d = build_preset(name).datum
        for mode in ("full", "reduced"):
            built.clear()
            report = check_pbw(d, mode)
            assert all(c.passed for c in report.conditions), (name, mode)
            assert sum(built.values()) == len(report.conditions), (name, mode)


def radford_redhat(N=2, c=1):
    """Radford with redhat_1 = c g: a power relation x1^N - c g of mixed
    length, and of one character, since x1^N has the trivial one."""
    d = build_preset("radford", N=N).datum
    return replace(d, redhats={(1,): NCPoly({((), (1,)): d.field.from_rational(c)})})


def tampered_a2_nichols(N, group=None):
    """A2 Nichols data with red_112 = -x2 x1 x1."""
    d = a2_nichols(N, group)
    bad = NCPoly({(((2,), (1,), (1,)), d.group.identity()): d.field.from_rational(-1)})
    return replace(d, reds=d.reds | {(1, 1, 2): bad})


def test_infinite_group_residues_are_decided_by_the_diamond():
    # the span needs a finite group and the diamond does not: over Z^2,
    # where a nonzero residue alone used to be a FAIL, each is decided by
    # the diamond, with the verdicts that the same data has over Z_3^2
    for mode in ("full", "reduced"):
        free = check_pbw(tampered_a2_nichols(3, GroupSpec((), 2)), mode).conditions
        finite = check_pbw(tampered_a2_nichols(3), mode).conditions
        assert [c.passed for c in free] == [c.passed for c in finite]
        assert [c.condition_id for c in free if c.passed is False] == ["jacobi(1<12<2)"]
        assert all(c.used_diamond == bool(c.residue_terms) for c in free)


def _agreement_data():
    """(id, builder) of the data on which the diamond is held against the
    span reference: the presets, the acceptance tamperings, the shapes of
    the benchmark's tamperings, and A3 at N = 3 with red_112 and red_13."""
    from test_acceptance import tampered_instances

    data = [(name, lambda name=name: build_preset(name).datum) for name in PRESET_NAMES]
    data += [(re.sub(r"\W+", "-", desc), lambda d=d: d) for desc, d, _margin in tampered_instances()]
    data += [(f"uq_sl2-N{N}-red_12", lambda N=N: tampered_uq_sl2(N, Fraction(-3, 2))) for N in (3, 5, 7, 9)]
    data += [(f"radford-N{N}-redhat_1", lambda N=N: radford_redhat(N, Fraction(2, 3))) for N in (2, 3, 4)]
    data += [(f"lifting_a1xa1-N{N}-red_12", lambda N=N: tampered_lifting_a1xa1(N, 4)) for N in (2, 3)]
    data += [("a2-N3-red_112", lambda: tampered_a2_nichols(3))]
    data += [(f"a3-N3-{t}", lambda t=t: a3_nichols(3, t)) for t in ("red_112", "red_13")]
    return data


_AGREEMENT = _agreement_data()

@pytest.mark.parametrize("desc,make", _AGREEMENT, ids=[desc for desc, _m in _AGREEMENT])
def test_diamond_agrees_with_the_span_reference(desc, make):
    # per condition, in both modes: the verdict of every condition that
    # check_pbw decides, with its nonzero residues decided by the diamond,
    # is that of the span reference; and the diamond's two sites are
    # left-hand sides that overlap in the bound word and cover it
    d = make()
    table = bracket_table(d)
    rs = build_rules(d, table)
    reports = {mode: check_pbw(d, mode).conditions for mode in ("full", "reduced")}
    # reduced mode keeps a subset of the full mode's elements and bounds
    ids = [c.condition_id for c in reports["full"]]
    reference = dict(zip(ids, span_reference_check(d, "full"), strict=True))
    for mode, conditions in reports.items():
        for c in conditions:
            s1, s2 = c.sites
            assert c.bound[s1[0]:s1[1]] in rs.rules and c.bound[s2[0]:s2[1]] in rs.rules, c.condition_id
            assert 0 == s1[0] < s2[0] < s1[1] < s2[1] == len(c.bound), c.condition_id
            if c.passed is not None:
                assert c.passed == reference[c.condition_id], (mode, c.condition_id)


def ambiguities(rules):
    """Every ambiguity of two left-hand sides A, B of the rules, as (W,
    sites): an overlap W = A + B[k:] of a proper suffix of A with a prefix
    of B, sites (0, |A|) and (|A| - k, |W|), and an inclusion of B != A in
    W = A, sites (0, |A|) and (i, i + |B|)."""
    for A in rules:
        for B in rules:
            for k in range(1, min(len(A), len(B))):
                if A[-k:] == B[:k]:
                    W = A + B[k:]
                    yield W, ((0, len(A)), (len(A) - k, len(W)))
            if B != A:
                for i in range(len(A) - len(B) + 1):
                    if A[i:i + len(B)] == B:
                        yield A, ((0, len(A)), (i, i + len(B)))


def test_every_ambiguity_below_the_least_failure_resolves():
    # the one FAIL of a report is exact: the conditions listed below its
    # bound pass, and so does every ambiguity of the rules below it, listed
    # or not (the powers u^(N+j), j >= 2, and the conditions that reduced
    # mode skips), on every tampering of the tests, in both modes
    from test_acceptance import tampered_instances

    b2 = build_preset("b2_scaffold").datum
    data = [(f"a3-N{N}-{t}", a3_nichols(N, t)) for N in (3, 5, 7) for t in sorted(A3_TAMPERINGS)]
    data += [(desc, d) for desc, d, _margin in tampered_instances()]
    data += [(f"uq_sl2-N{N}", tampered_uq_sl2(N)) for N in (3, 5, 7, 9)]
    data += [(f"radford-N{N}", radford_redhat(N, Fraction(2, 3))) for N in (2, 3, 4)]
    data += [(f"lifting_a1xa1-N{N}", tampered_lifting_a1xa1(N, 4)) for N in (2, 3)]
    data += [("a2-N3-red_112", tampered_a2_nichols(3))]
    data += [("b2-red_122", replace(b2, reds=b2.reds | {
        (1, 2, 2): NCPoly({(((2,), (2,), (1,)), b2.group.identity()): b2.field.from_rational(-1)}),
    }))]
    resolved = 0
    for desc, d in data:
        rs = build_rules(d, bracket_table(d))
        for mode in ("full", "reduced"):
            conditions = check_pbw(d, mode).conditions
            failing = [c for c in conditions if c.passed is False]
            assert len(failing) == 1, (desc, mode)
            W0 = failing[0].bound
            assert all(c.passed for c in conditions if prec_cmp(c.bound, W0) < 0), (desc, mode)
            for W, sites in ambiguities(rs.rules):
                if prec_cmp(W, W0) < 0:
                    assert diamond_resolves(rs, W, sites), (desc, mode, W)
                    resolved += 1
    assert resolved == 126


def test_every_overlap_of_the_presets_resolves_by_the_diamond():
    # the diamond alone, without bounded reduction: on confluent data every
    # condition's overlap resolves, although the two one-step reductions
    # differ on most of them
    differ = total = 0
    for name in PRESET_NAMES:
        d = build_preset(name).datum
        table = bracket_table(d)
        rs = build_rules(d, table)
        e = d.group.identity()
        for c in criterion._conditions(d, table, "full"):
            s1, s2 = c.sites
            assert diamond_resolves(rs, c.bound, (s1, s2)), (name, c.condition_id)
            differ += rs.rewrite_at(c.bound, e, s1) != rs.rewrite_at(c.bound, e, s2)
            total += 1
    assert total == 130 and differ == 94


def _sparse_poly(field, terms):
    """A polynomial over monomials x_i (i = 0, 1, ...) with integer coefficients."""
    p = NCPoly()
    for i, c in terms.items():
        p.add_term((((i + 1,),), ()), field.from_rational(c))
    return p


_COEFFS = st.integers(-2, 2).filter(bool)
_SPARSE = st.dictionaries(st.integers(0, 7), _COEFFS, max_size=3)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(
    st.sampled_from([CycloField(1), PrimeField(3)]),
    st.lists(_SPARSE, max_size=8),
    st.lists(st.integers(-2, 2), max_size=8),
    _SPARSE,
)
def test_linked_component_elimination_matches_plain_elimination(field, systems, combo, noise):
    # the target is a combination of some elements plus optional noise, so
    # that both answers occur; the pruned test must equal plain elimination
    elements = [_sparse_poly(field, t) for t in systems]
    target = _sparse_poly(field, noise)
    for c, e in zip(combo, elements):
        target = target + e.scale(field.from_rational(c))
    ech = Echelon()
    for e in elements:
        if not e.is_zero():
            ech.insert(poly_row(e))
    assert span_contains(elements, target) == ech.contains(poly_row(target))


def test_linked_component_elimination_follows_a_chain():
    # x0 + x4 = (x0 + x1) - (x1 + x2) + (x2 + x4): the middle element shares
    # no monomial with the target and is reached only through its neighbours
    f = CycloField(1)
    chain = [_sparse_poly(f, {0: 1, 1: 1}), _sparse_poly(f, {1: 1, 2: 1}), _sparse_poly(f, {2: 1, 4: 1})]
    apart = _sparse_poly(f, {3: 1, 5: 1})
    target = _sparse_poly(f, {0: 1, 4: 1})
    assert span_contains([apart] + chain, target)
    assert not span_contains([apart, chain[0], chain[2]], target)
    assert span_contains([apart] + chain, target + apart)  # two linked components


class PlainEchelon:
    """Row echelon that always multiplies by the lead and keeps each pivot
    as its whole normalized row: the reference for Echelon, and the
    elimination of reference_quotient_rank, which so shares no code with
    Echelon."""

    def __init__(self):
        self.pivots = {}

    def _reduce(self, row):
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row, lead
            c = row[lead]
            for k, v in piv.items():
                s = row.get(k, c.field.zero()) - c * v
                if s.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = s
        return None, None

    def insert(self, row):
        red, lead = self._reduce(row)
        if red is None:
            return False
        inv = red[lead].inverse()
        self.pivots[lead] = {k: v * inv for k, v in red.items()}
        return True

    def contains(self, row):
        return self._reduce(row)[0] is None


def _random_scalar(rng, field):
    """1, -1, a rational, +-zeta^k or a general element, each as likely."""
    kind = rng.randrange(5)
    if kind == 0:
        return field.one()
    if kind == 1:
        return -field.one()
    if kind == 2:
        return field.from_rational(Fraction(rng.choice((2, -3, 5)), rng.choice((1, 2, 3))))
    if kind == 3:
        return _signed_root(rng, field)
    if isinstance(field, PrimeField):
        return field.element(rng.randrange(2, field.p - 1))
    return field.from_rational(Fraction(1, 3)) + field.root(1) * field.from_rational(2)


def _signed_root(rng, field):
    return field.root(rng.randrange(field.unit_order)) * field.from_rational(rng.choice((1, -1)))


def normalized_pivots(ech, field):
    """Echelon's pivots as PlainEchelon keeps them: each lead maps to its
    normalized row, the lead at one and the stored tail as it is."""
    return {lead: {lead: field.one(), **dict(piv)} for lead, piv in ech.pivots.items()}


@pytest.mark.parametrize(
    "field", [CycloField(1), CycloField(6), CycloField(12), PrimeField(7)], ids=repr
)
def test_unit_fast_paths_agree_with_plain_elimination(field):
    # rows are random over 8 columns, plus combinations of earlier rows so
    # that reductions run to zero; half the random rows lead with -1 or
    # +-zeta^k.  Pivots stored without their lead, and unit leads and
    # multipliers that skip the scalar work, must change no normalized
    # pivot, rank or membership, nor any row the caller passed
    rng = random.Random(12)
    for _ in range(60):
        ech, ref = Echelon(), PlainEchelon()
        rows = []
        for _ in range(rng.randrange(1, 12)):
            if rows and rng.random() < 0.4:
                row = {}
                for other in rng.sample(rows, min(len(rows), 2)):
                    c = _random_scalar(rng, field)
                    for k, v in other.items():
                        row[k] = row.get(k, field.zero()) + c * v
                row = {k: v for k, v in row.items() if not v.is_zero()}
            else:
                cols = rng.sample(range(8), rng.randrange(1, 5))
                row = {k: _random_scalar(rng, field) for k in cols}
                if rng.random() < 0.5:
                    row[min(row)] = rng.choice((-field.one(), _signed_root(rng, field)))
            if row:
                rows.append(row)
                before = dict(row)
                assert ech.insert(row) == ref.insert(row)
                assert row == before
        assert ech.rank == len(ref.pivots)
        assert normalized_pivots(ech, field) == ref.pivots
        for row in rows + [{k: _random_scalar(rng, field) for k in rng.sample(range(8), 3)}]:
            before = dict(row)
            assert ech.contains(row) == ref.contains(row)
            assert row == before


def test_echelon_leaves_the_callers_rows_unchanged():
    # every call below reduces by the pivot of column 0: the reduction works
    # on a copy, and a stored pivot shares nothing with the row it came from
    f = CycloField(6)
    z, two = f.root(1), f.from_rational(2)
    ech = Echelon()
    pivot = {0: two, 1: z}
    row = {0: z, 1: two, 2: f.one()}
    member = {0: z, 1: z * z * f.from_rational(Fraction(1, 2))}  # z/2 times the pivot
    rows = [dict(pivot), dict(row), dict(member)]
    assert ech.insert(pivot)
    assert not ech.contains(row)
    assert ech.contains(member)
    assert ech.insert(row)
    assert not ech.insert(member)
    assert [pivot, row, member] == rows
    pivot[1] = f.one()
    row.clear()
    assert ech.rank == 2 and all(ech.contains(r) for r in rows)
    assert not ech.contains({0: two, 1: f.one()})


def test_echelon_step_does_scalar_work_only_on_the_row(monkeypatch):
    # each call's scalar operations over Q(zeta_6), counted: a reduction step
    # by the pivot of its lead pops the lead, so no difference or product
    # computes the lead again; a multiplier of one makes no product; each
    # pivot entry costs at most one product and one difference, or one
    # product and one sign where it fills an empty column; and a pivot is
    # stored as its tail over the lead, with no sign
    f = CycloField(6)
    one, z, two = f.one(), f.root(1), f.from_rational(2)
    a = two + z  # no multiple of a root of unity
    p0 = {0: one, 2: a, 3: z}
    p1 = {1: one, 3: two, 4: a}
    zz = z * z
    combo = {0: zz, 1: -one, 2: zz * a, 3: zz * z - two, 4: -a}  # zeta^2 p0 - p1
    # the same row with its leads unmarked: a product with a marked lead may
    # return the field's cached root, here zeta^2 * zeta = -1, the second
    # lead itself, so only unmarked leads are told apart by identity
    fresh = {**combo, 0: Cyclo(f, zz.num, zz.den), 1: Cyclo(f, (-one).num, 1)}
    ech = Echelon()
    assert ech.insert(p0) and ech.insert(p1)

    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__neg__"):
        def counted(self, *other, _name=name, _op=getattr(Cyclo, name)):
            calls.append((_name, self, *other))
            return _op(self, *other)

        monkeypatch.setattr(Cyclo, name, counted)

    def ops(call, *args):
        calls.clear()
        result = call(*args)
        count = dict.fromkeys(("__add__", "__sub__", "__mul__", "__neg__"), 0)
        for name, *_ in calls:
            count[name] += 1
        return result, count, list(calls)

    # one step by one: two differences, nothing else
    assert ops(ech.contains, p0)[:2] == (True, {"__add__": 0, "__sub__": 2, "__mul__": 0, "__neg__": 0})
    # a step by zeta^2 and one by -1: one product and one difference per entry
    result, count, made = ops(ech.contains, combo)
    assert result and count == {"__add__": 0, "__sub__": 4, "__mul__": 4, "__neg__": 0}
    assert not any(x.is_one() for name, *xs in made if name == "__mul__" for x in xs)
    result, count, made = ops(ech.contains, fresh)
    assert result and count == {"__add__": 0, "__sub__": 4, "__mul__": 4, "__neg__": 0}
    leads = (fresh[0], fresh[1])
    assert not any(x is c for name, *xs in made if name != "__mul__" for x in xs for c in leads)
    assert not any(x.is_one() for name, *xs in made if name == "__mul__" for x in xs)
    # fill-in: the two products land in empty columns, each with a sign and
    # no difference; by one, the signs alone
    assert ops(ech.contains, {0: zz, 5: one})[:2] == (
        False, {"__add__": 0, "__sub__": 0, "__mul__": 2, "__neg__": 2}
    )
    assert ops(ech.contains, {1: one})[:2] == (
        False, {"__add__": 0, "__sub__": 0, "__mul__": 0, "__neg__": 2}
    )
    # a new pivot: entries times 1/lead, the lead itself untouched; with a
    # lead of one, the entries as they are
    result, count, made = ops(ech.insert, {5: z, 6: a, 7: two, 8: one})
    assert result and count == {"__add__": 0, "__sub__": 0, "__mul__": 3, "__neg__": 0}
    assert not any(x is z for name, *xs in made if name == "__mul__" for x in xs)
    assert ops(ech.insert, {9: one, 10: a, 11: z})[:2] == (
        True, {"__add__": 0, "__sub__": 0, "__mul__": 0, "__neg__": 0}
    )
    monkeypatch.undo()
    assert normalized_pivots(ech, f)[5] == {5: one, 6: a * z.inverse(), 7: two * z.inverse(), 8: z.inverse()}


def test_column_keys_sort_as_the_labels_and_extend_by_arithmetic():
    theta, max_len = 3, 4
    group = GroupSpec((2, 3))
    elements = group.elements()
    cols = ColumnKeys(theta, len(elements), max_len)
    words = [
        tuple((x,) for x in w)
        for n in range(max_len + 1)
        for w in itertools.product(range(1, theta + 1), repeat=n)
    ]
    columns = [(U, i) for U in words for i in range(len(elements))]
    by_label = sorted(columns, key=lambda c: (*greatest_first(c[0]), elements[c[1]]))
    by_key = sorted(columns, key=lambda c: cols.key(*c))
    assert by_key == by_label
    keys = [cols.key(*c) for c in columns]
    assert len(set(keys)) == len(columns)
    assert max(keys) < (max_len + 1) * theta**max_len * len(elements)
    # the coefficient is twisted by the entry for g on the right only
    twist = [None, 2, 3, 5, 7, 11]
    for U, i in columns:
        if len(U) == max_len:
            continue
        for x in range(1, theta + 1):
            assert cols.extend_left({cols.key(U, i): 1}, x) == {cols.key(((x,),) + U, i): 1}
            assert cols.extend_right({cols.key(U, i): 1}, x, twist) == {
                cols.key(U + ((x,),), i): twist[i] or 1
            }


@pytest.mark.parametrize("name", ["nichols_a1xa1", "uq_sl2", "lifting_a2_1a"])
def test_quotient_rank_over_a_prime_field(name):
    # a preset over Q(zeta_m), m | 6, re-fielded to F_7, whose distinguished
    # root has order 6: the characters' root exponents scale by 6 / m
    raw = datum_to_dict(build_preset(name).datum)
    scale = 6 // raw["field"]["cyclotomic"]
    raw["field"] = {"prime": 7}
    raw["chi"] = [[scale * e for e in chi] for chi in raw["chi"]]
    d = datum_from_dict(raw)
    assert d.validate() == [] and check_pbw(d).passed
    count = dimension(d)
    for margin in (0, 2):
        assert quotient_rank(d, margin=margin) == count == reference_quotient_rank(d, margin), margin


def test_verdict_matches_oracle_equivalence_both_directions():
    # at desk scale the verdict must coincide with "irreducible count equals
    # the independent rank", on passing and on broken data alike
    instances = [
        (build_preset("taft", N=3).datum, 0),
        (build_preset("radford", N=2).datum, 3),
        (build_preset("uq_sl2").datum, 2),
        (build_preset("lifting_a1xa1", N=2).datum, 2),
        (tampered_uq_sl2(), 2),
        (radford_redhat(), 3),
    ]
    for datum, margin in instances:
        rep = check_pbw(datum)
        count = dimension(datum)
        assert count <= 200
        rank = quotient_rank(datum, margin=margin)
        assert rep.passed == (rank == count), (rep.passed, rank, count)


def reference_quotient_rank(datum, margin=0):
    """quotient_rank eliminating every row over the whole group: each
    lg*a*r*b (lg = 1 when every relation is homogeneous) shifted by every h."""
    els = datum.group.elements()
    max_len = margin + sum((datum.heights[u] - 1) * len(u) for u in datum.L)
    letters = [(i,) for i in range(1, datum.theta + 1)]
    words = [w for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)]
    gens = [r for r in ideal_generators_expanded(datum) if not r.is_zero()]
    homogeneous = all(datum.char_degree(r) is not None for r in gens)
    ech = PlainEchelon()
    for r in gens:
        deg = max(xlen(U) for U, _ in r.terms)
        for a, b in itertools.product(words, repeat=2):
            if len(a) + deg + len(b) > max_len:
                continue
            for lg in [datum.group.identity()] if homogeneous else els:
                row = reduce(datum.mul, [datum.group_like(lg), datum.monomial(a), r, datum.monomial(b)])
                for h in els:
                    ech.insert(poly_row(datum.mul(row, datum.group_like(h))))
    return len(words) * len(els) - len(ech.pivots)


@pytest.mark.parametrize("margin", [0, 2])
def test_quotient_rank_matches_full_group_elimination(margin):
    # the subgroup H of the relations' group parts is trivial for taft, all
    # of G for uq_sl2 and radford with redhat_1 = g, and proper and
    # nontrivial for lifting_a2_1a and for x1^3 - x1 - g^3, whose two
    # characters differ, so that rows take every left group element
    d = build_preset("radford", N=3).datum
    mixed = NCPoly()
    mixed.add_term((((1,),), d.group.identity()), d.field.one())
    mixed.add_term(((), (3,)), d.field.one())
    cases = [
        ("taft", build_preset("taft", N=3).datum),
        ("uq_sl2", build_preset("uq_sl2", N=3).datum),
        ("lifting_a2_1a", build_preset("lifting_a2_1a").datum),
        ("radford with redhat_1 = g", radford_redhat()),
        ("radford N=3 with redhat_1 = x1 + g^3", replace(d, redhats={(1,): mixed})),
        ("tampered uq_sl2", tampered_uq_sl2()),
        # two power relations each, so rows grow on both sides of two seeds
        ("lifting_a1xa1 N=2", build_preset("lifting_a1xa1", N=2).datum),
        ("nichols_a1xa1 2x3", build_preset("nichols_a1xa1", N1=2, N2=3).datum),
        ("book N=3", build_preset("book", N=3).datum),
    ]
    if margin == 0:
        # the rows whose elimination order moved most; at margin 2 the
        # reference takes 1.6 s
        cases.append(("lifting_a2_2a", build_preset("lifting_a2_2a").datum))
    for desc, d in cases:
        assert quotient_rank(d, margin=margin) == reference_quotient_rank(d, margin), desc


def test_quotient_rank_extends_only_the_rows_that_grew_the_span(monkeypatch):
    # lifting_a2_1b has 3,903 placements lg*a*r*b*h; rows that did not
    # enlarge the span are not extended, so far fewer are inserted
    inserts = 0
    insert = Echelon.insert

    def counted(self, row):
        nonlocal inserts
        inserts += 1
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", counted)
    assert quotient_rank(build_preset("lifting_a2_1b").datum) == 243
    assert inserts <= 2_000


@pytest.mark.parametrize("name,rank,bound", [("lifting_a2_2a", 216, 1_000), ("lifting_a2_1b", 243, 4_000)])
def test_quotient_rank_eliminates_least_leading_monomial_first(monkeypatch, name, rank, bound):
    # inserted in the order generated, each level's rows took 1,540 scalar
    # products on lifting_a2_2a and 20,831 on lifting_a2_1b
    products = 0
    mul = Cyclo.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", counted)
    assert quotient_rank(build_preset(name).datum) == rank
    assert products <= bound, products


def test_quotient_rank_refuses_past_the_row_budget():
    # tampered uq_sl2 N=5 at margin 2: 10,235 columns, inside the column
    # budget, but 23,695 placements, past the row budget
    d = tampered_uq_sl2(N=5)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {MAX_ORACLE_ROWS} rows"):
        quotient_rank(d, margin=2)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("name", ["b2_scaffold", "lifting_a2_1c"])
def test_quotient_rank_refuses_past_the_column_budget(name):
    d = build_preset(name).datum
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {MAX_ORACLE_COLUMNS} columns"):
        quotient_rank(d)
    assert time.perf_counter() - t0 < 1.0


def test_quotient_rank_sets_up_over_the_coset_block(monkeypatch):
    # nichols_a1xa1 4x5: |G| = 20, and no relation has a group part, so H
    # is trivial; the twists chi_x(h) are computed for the theta * |H| = 2
    # pairs (x, h) of the block, not for all theta * |G| = 40
    d = build_preset("nichols_a1xa1", N1=4, N2=5).datum
    gens = ideal_generators_expanded(d)
    monkeypatch.setattr(oracle, "ideal_generators_expanded", lambda datum: gens)
    twists = 0
    apply = Datum.chi_apply_exp

    def counted(self, chi, g):
        nonlocal twists
        twists += 1
        return apply(self, chi, g)

    monkeypatch.setattr(Datum, "chi_apply_exp", counted)
    assert quotient_rank(d) == 4 * 5 * 20
    assert twists == 2
    # a twist table holds the block's indices only: a column outside H is
    # refused, not read as untwisted
    cols = ColumnKeys(2, 20, 3)
    with pytest.raises(KeyError):
        cols.extend_right({cols.key(((1,),), 7): d.field.one()}, 2, {0: None})


def test_power_relation_of_a_letter_is_built_as_a_monomial(monkeypatch):
    # taft N=8: x1^8, built as one monomial with no Datum.mul call; the
    # seven products gave the same polynomial
    d = build_preset("taft", N=8).datum
    power = reduce(d.mul, [d.letter((1,))] * 8)
    calls = 0
    mul = Datum.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(Datum, "mul", counted)
    assert ideal_generators_expanded(d) == [power - d.expand_to_letters(d.redhats[(1,)])]
    assert calls == 0


def test_forced_serre_from_power_examples():
    d = build_preset("lifting_a2_1a").datum
    assert forced_serre_from_power(d, (1,), (2,), "left").is_zero()
    assert forced_serre_from_power(d, (1,), (2,), "right").is_zero()
    d = build_preset("lifting_a2_2b").datum
    assert forced_serre_from_power(d, (1,), (2,), "right") == d.reds[(1, 2, 2)]
    with pytest.raises(ValueError):
        forced_serre_from_power(d, (1,), (2,), "left")  # height of 1 is 4
    d = build_preset("lifting_a2_4b").datum
    # redhat_1 = 0 forces a zero right-hand side
    assert forced_serre_from_power(d, (1,), (2,), "left").is_zero()


def test_forced_serre_output_has_the_right_degree():
    # nonzero outputs carry the character degree of the word they replace
    d = build_preset("lifting_a2_2b").datum
    rhs = forced_serre_from_power(d, (1,), (2,), "right")
    assert not rhs.is_zero()
    assert d.chi_eq(d.char_degree(rhs), d.chi_word((1, 2, 2)))
    d = build_preset("lifting_a2_3a").datum
    rhs = forced_serre_from_power(d, (1,), (2,), "left")
    assert not rhs.is_zero()
    assert d.chi_eq(d.char_degree(rhs), d.chi_word((1, 1, 2)))


def test_forced_power_rank2_reproduces_stored_redhat():
    for name in ("lifting_a2_2a", "lifting_a2_2b", "lifting_a2_3a", "lifting_a2_3b"):
        d = build_preset(name).datum
        tab = bracket_table(d)
        got = forced_power_from_jacobi(d, tab, "rank2-12")
        assert got is not None
        coeff, rhs, word, n = got
        assert (word, n) == ((1, 2), 2)
        assert rhs == d.redhats[(1, 2)], name
    # the stored redhat_12 is built by the same function, so also pin
    # (coefficient, forced redhat_12) at two settings of mu1 and mu2, as the
    # hand-derived closed forms gave them
    pinned = {
        ("lifting_a2_2a", 2, -3): ("z", "(9 - 9*z)*x1*x1*g1^4"),
        ("lifting_a2_2a", "1/2", 5): ("z", "(-15 + 15*z)*x1*x1*g1^4"),
        ("lifting_a2_2b", 2, -3): ("-1 - z", "-6*x1*x1*g1^2 + (1 - z)*x2"),
        ("lifting_a2_2b", "1/2", 5): ("-1 - z", "10*x1*x1*g1^2 + (1 - z)*x2"),
        ("lifting_a2_3a", 2, -3): ("-1 + z", "6*z*x2*x2"),
        ("lifting_a2_3a", "1/2", 5): ("-1 + z", "3/2*z*x2*x2"),
        ("lifting_a2_3b", 2, -3): ("1 - z", "-4*z*x2*x2 + (-1 - z)*x1*g1^3"),
        ("lifting_a2_3b", "1/2", 5): ("1 - z", "-z*x2*x2 + (-1 - z)*x1*g1^3"),
    }
    for (name, mu1, mu2), want in pinned.items():
        d = build_preset(name, mu1=mu1, mu2=mu2).datum
        coeff, rhs, word, n = forced_power_from_jacobi(d, bracket_table(d), "rank2-12")
        assert (word, n) == ((1, 2), 2)
        assert (format_scalar(coeff), format_poly(rhs)) == want, (name, mu1, mu2)


def test_forced_power_not_applicable_when_coefficient_vanishes():
    # q11 = q22 makes the rank-2 leading coefficient vanish
    d = build_preset("lifting_a2_1a").datum
    tab = bracket_table(d)
    assert forced_power_from_jacobi(d, tab, "rank2-12") is None


def test_forced_power_b2_levels():
    d = build_preset("b2_scaffold").datum
    tab = bracket_table(d)
    got = forced_power_from_jacobi(d, tab, "b2-11212")
    assert got is not None
    coeff, rhs, word, n = got
    assert coeff == d.q_uv((1,), (2,)) * d.q_uv((1,), (1,))  # q11^2 = q22 case
    assert rhs.is_zero() and word == (1, 1, 2, 1, 2)
    # the other levels need heights 2 resp. 3 on 112 resp. 12
    with pytest.raises(ValueError):
        forced_power_from_jacobi(d, tab, "b2-112")
    with pytest.raises(ValueError):
        forced_power_from_jacobi(d, tab, "b2-12")
    with pytest.raises(ValueError):
        forced_power_from_jacobi(d, tab, "nothing")


def b2_shape(m, a, b, c, e, heights):
    """L = {1, 112, 12, 2} over Z/m x Z/m with bicharacter exponents
    q11 = a, q12 = b, q21 = c, q22 = e and zero right-hand sides."""
    field = CycloField(m)
    group = GroupSpec((m, m))
    L = ((1,), (1, 1, 2), (1, 2), (2,))
    return Datum(
        theta=2, field=field, group=group,
        g=(group.element((1, 0)), group.element((0, 1))),
        chi=((a, c), (b, e)),
        L=L,
        heights={tuple(u): n for u, n in heights.items()},
        reds={w: NCPoly.zero() for w in [(1, 1, 1, 2), (1, 1, 2, 1, 2), (1, 2, 2)]},
        redhats={tuple(u): NCPoly.zero() for u, n in heights.items() if n is not None},
    )


def b2_by_exponents(m, a, b, c, e):
    """b2_shape with every height the order of its q_uu."""
    def order(k):
        return m // math.gcd(k, m)

    heights = {
        (1,): order(a), (1, 1, 2): order(4 * a + 2 * (b + c) + e),
        (1, 2): order(a + b + c + e), (2,): order(e),
    }
    return b2_shape(m, a, b, c, e, heights)


def test_forced_power_b2_height_two_level():
    # 4a + 2(b+c) + e = 4 mod 8 gives the middle word height two
    d = b2_shape(8, a=1, b=1, c=2, e=2, heights={(1,): 8, (1, 1, 2): 2, (1, 2): 4, (2,): 4})
    assert d.validate() == []
    tab = bracket_table(d)
    got = forced_power_from_jacobi(d, tab, "b2-112")
    assert got is not None
    coeff, rhs, word, n = got
    f = d.field
    q11, q12, q21, q22 = f.root(1), f.root(1), f.root(2), f.root(2)
    assert coeff == q11 * q11 * q12 * (f.one() - q12 * q21 * q22)
    assert rhs.is_zero() and (word, n) == ((1, 1, 2), 2)

    # the longer-word level on the same datum: nonzero forced value
    got = forced_power_from_jacobi(d, tab, "b2-11212")
    assert got is not None
    coeff, rhs, word, n = got
    q = q12 * (f.one() + q11 + q11 * q11 - f.one() - q22)
    qp = q12 * (q * (f.one() + q11 * q11 * q12 * q21 * q22) - q11 * q12 * (f.one() + q22))
    assert coeff == q
    assert rhs == d.monomial(((1, 2), (1, 1, 2))).scale(-q.inverse() * qp)
    assert not rhs.is_zero()

    # more exponents (m, q11, q12, q21, q22) with 112 of height two; the
    # b2-112 coefficient vanishes on the Z/4 datum
    for m, a, b, c, e in [(8, 1, 0, 2, 4), (8, 1, 3, 2, 6), (6, 1, 0, 1, 3), (4, 1, 0, 2, 2), (12, 1, 0, 11, 4)]:
        d = b2_by_exponents(m, a, b, c, e)
        assert d.validate() == [] and d.heights[(1, 1, 2)] == 2
        tab = bracket_table(d)
        f = d.field
        q11, q12, q21, q22 = f.root(a), f.root(b), f.root(c), f.root(e)
        expect = q11 * q11 * q12 * (f.one() - q12 * q21 * q22)
        got = forced_power_from_jacobi(d, tab, "b2-112")
        if expect.is_zero():
            assert got is None, m
        else:
            coeff, rhs, word, n = got
            assert coeff == expect and rhs.is_zero() and (word, n) == ((1, 1, 2), 2)
        coeff, rhs, word, n = forced_power_from_jacobi(d, tab, "b2-11212")
        q = q12 * (f.one() + q11 + q11 * q11 - f.one() - q22)
        qp = q12 * (q * (f.one() + q11 * q11 * q12 * q21 * q22) - q11 * q12 * (f.one() + q22))
        assert coeff == q and (word, n) == ((1, 1, 2, 1, 2), 1)
        assert rhs == d.monomial(((1, 2), (1, 1, 2))).scale(-q.inverse() * qp)


def test_forced_power_b2_height_three_level():
    # a + b + c + e = 3 mod 9 gives the pair word height three
    d = b2_shape(9, a=1, b=4, c=5, e=2, heights={(1,): 9, (1, 1, 2): 3, (1, 2): 3, (2,): 9})
    assert d.validate() == []
    tab = bracket_table(d)
    got = forced_power_from_jacobi(d, tab, "b2-12")
    assert got is not None
    coeff, rhs, word, n = got
    f = d.field
    q11, q12, q21, q22 = f.root(1), f.root(4), f.root(5), f.root(2)
    assert coeff == q12 * q12 * q22 * (q22 - q11) * (q11 * q11 * q12 * q21 - f.one())
    assert rhs.is_zero() and (word, n) == ((1, 2), 3)

    # more exponents (m, q11, q12, q21, q22) with 12 of height three; the
    # coefficient vanishes on the first Z/6 datum
    for m, a, b, c, e in [(9, 1, 0, 0, 2), (6, 1, 0, 2, 1), (6, 1, 0, 1, 2), (12, 1, 0, 1, 2), (12, 1, 0, 11, 4)]:
        d = b2_by_exponents(m, a, b, c, e)
        assert d.validate() == [] and d.heights[(1, 2)] == 3
        f = d.field
        q11, q12, q21, q22 = f.root(a), f.root(b), f.root(c), f.root(e)
        expect = q12 * q12 * q22 * (q22 - q11) * (q11 * q11 * q12 * q21 - f.one())
        got = forced_power_from_jacobi(d, bracket_table(d), "b2-12")
        if expect.is_zero():
            assert got is None, m
        else:
            coeff, rhs, word, n = got
            assert coeff == expect and rhs.is_zero() and (word, n) == ((1, 2), 3)


def test_b2_coefficient_special_forms():
    f = CycloField(60)
    one = f.one()

    def q_coeff(q11, q12, q22):
        return q12 * (one + q11 + q11 * q11 - one - q22)

    # q11^2 = q22   ->  q12 q11
    q11, q12 = f.root(12), f.root(7)
    assert q_coeff(q11, q12, q11 * q11) == q12 * q11
    # q22 = -1      ->  q12 (3)_{q11}
    q22 = f.root(30)
    assert q_coeff(q11, q12, q22) == q12 * (one + q11 + q11 * q11)
    # ord q11 = 3   ->  -q12 (2)_{q22}
    q11 = f.root(20)
    q22 = f.root(9)
    assert q_coeff(q11, q12, q22) == -(q12 * (one + q22))


def uq_sl2_three_letters(N=3):
    """The Frobenius-Lusztig kernel presented over {1, 12, 2}: the middle
    letter has height one and rewrites straight to 1 - g^2."""
    f = CycloField(N)
    gs = GroupSpec((N,))

    def poly(*terms):
        p = NCPoly()
        for letters, g, c in terms:
            p.add_term((tuple(tuple(l) for l in letters), gs.element(g)), c)
        return p

    one = f.one()
    return Datum(
        theta=2, field=f, group=gs,
        g=(gs.element((1,)), gs.element((1,))),
        chi=((-2 % N,), (2,)),
        L=((1,), (1, 2), (2,)),
        heights={(1,): N, (1, 2): 1, (2,): N},
        reds={
            (1, 1, 2): poly(([(1,)], (2,), f.root(-4 % N) - one)),
            (1, 2, 2): poly(([(2,)], (0,), one - f.root(4 % N))),
        },
        redhats={
            (1,): NCPoly.zero(),
            (2,): NCPoly.zero(),
            (1, 2): poly(([], (0,), one), ([], (2,), -one)),
        },
    )


def test_height_one_presentation_passes_and_counts():
    d = uq_sl2_three_letters()
    assert d.validate() == []
    assert check_pbw(d).passed and check_pbw(d, mode="reduced").passed
    assert dimension(d) == 27
    assert quotient_rank(d) == 27


def test_generic_redundancies():
    # with the height-one power rule available, both commutator relations
    # rewrite to zero on their own
    d = uq_sl2_three_letters()
    got = generic_redundancies(d, bracket_table(d))
    assert ("red", (1, 1, 2)) in got
    assert ("red", (1, 2, 2)) in got
    # the helper is conservative: Jacobi-forced redundancies need their
    # own rule to rewrite, so plain reduction does not flag them
    d = build_preset("b2_scaffold").datum
    assert generic_redundancies(d, bracket_table(d)) == []


def test_a_power_relation_never_reduces_to_zero_without_its_own_rule():
    # why generic_redundancies lists no power relation: u^N holds no other
    # left-hand side, so the element keeps its term u^N
    data = [build_preset(name).datum for name in PRESET_NAMES] + [uq_sl2_three_letters()]
    checked = 0
    for d in data:
        rules = build_rules(d, bracket_table(d)).rules
        for u in d.d_set():
            lhs = (u,) * d.heights[u]
            pruned = RuleSystem(d, {k: r for k, r in rules.items() if k != lhs})
            assert (lhs, d.group.identity()) in normal_form(pruned, d.monomial(lhs) - rules[lhs]).terms
            checked += 1
    assert checked == 46


def test_a_red_without_a_height_one_letter_keeps_its_term_without_its_own_rule():
    # why generic_redundancies tries only the reds whose left-hand side
    # (u, v) holds a letter of height one
    data = [build_preset(name).datum for name in PRESET_NAMES] + [uq_sl2_three_letters()]
    checked = 0
    for d in data:
        rules = build_rules(d, bracket_table(d)).rules
        for w in d.reds:
            lhs = shirshov_decompose(w)
            if 1 in (d.heights[u] for u in lhs):
                continue
            pruned = RuleSystem(d, {k: r for k, r in rules.items() if k != lhs})
            assert (lhs, d.group.identity()) in normal_form(pruned, d.monomial(lhs) - rules[lhs]).terms
            checked += 1
    assert checked == 27


def test_condition_report_serialization():
    d = build_preset("uq_sl2").datum
    rep = check_pbw(d)
    js = rep.to_json()
    assert js["verdict"] == "pass"
    assert all(c["status"] == "pass" for c in js["conditions"])
    ids = [c["id"] for c in js["conditions"]]
    assert len(ids) == len(set(ids))
    assert any(line.startswith("verdict: PASS") for line in rep.lines())
