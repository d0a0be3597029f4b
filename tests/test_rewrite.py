"""Rule construction, normal forms, bounded reduction, PBW enumeration,
dimension and word counts, and the oracle cross-checks."""

import itertools
import random
from functools import reduce

import pytest

from pbw import rewrite
from pbw.algebra import GroupSpec, NCPoly
from pbw.criterion import _conditions, bracket_table
from pbw.oracle import quotient_rank
from pbw.presets import PRESET_NAMES, build_preset
from pbw.rewrite import (
    build_rules,
    dimension,
    hilbert,
    normal_form,
    pbw_monomials,
    pbw_words,
    reduce_bounded,
)
from pbw.scalars import Cyclo
from pbw.words import greatest_first, prec_cmp, xlen

from corpus import a2_nichols, a3_nichols, tampered_uq_sl2, uq_sl2_over_f7, uq_sl2_three_letters


def rules_for(name, **kw):
    p = build_preset(name, **kw)
    return p, build_rules(p.datum, bracket_table(p.datum))


def test_build_rules_examples():
    _, rs = rules_for("quantum_plane")
    assert list(rs.rules) == [((1,), (2,))]
    d = rs.datum
    assert rs.rules[((1,), (2,))] == d.monomial(((2,), (1,))).scale(d.q_uv((1,), (2,)))

    _, rs = rules_for("taft")
    power = ((1,),) * rs.datum.heights[(1,)]
    assert list(rs.rules) == [power]
    assert rs.rules[power].is_zero()

    _, rs = rules_for("lifting_a2_1a")
    pairs = [lhs for lhs in rs.rules if lhs[0] != lhs[-1]]
    powers = [lhs for lhs in rs.rules if lhs[0] == lhs[-1]]
    assert sorted(pairs) == [((1,), (1, 2)), ((1,), (2,)), ((1, 2), (2,))]
    assert sorted(powers) == sorted((u,) * rs.datum.heights[u] for u in [(1,), (1, 2), (2,)])


def test_build_rules_rejects_incompatible_rhs():
    p = build_preset("quantum_plane")
    d = p.datum
    bad_table = {((1,), (2,)): d.monomial(((1,), (2,)))}  # the lhs itself
    with pytest.raises(ValueError):
        build_rules(d, bad_table)


def test_rewriting_order_greatest_first_examples():
    g, h = (0,), (1,)

    def greatest_monomial(*monos):
        return min(monos, key=lambda m: greatest_first(m[0]))

    # equal length: the lexicographically smaller word is the greater one
    assert greatest_monomial((((2,), (1,)), g), (((1,), (2,)), h)) == (((1,), (2,)), h)
    # the longer word is the greater one
    assert greatest_monomial((((1,),), g), (((1,), (2,)), h)) == (((1,), (2,)), h)
    # group parts are ignored: the first of two equal words wins
    assert greatest_monomial((((1, 2),), g), (((1, 2),), h)) == (((1, 2),), g)
    assert greatest_monomial((((1, 2),), h), (((1, 2),), g)) == (((1, 2),), h)


def test_normal_form_examples():
    p, rs = rules_for("nichols_a1", N=3)
    d = p.datum
    x = d.letter((1,))
    assert normal_form(rs, reduce(d.mul, [x, x, x])).is_zero()

    p, rs = rules_for("radford", N=2)
    d = p.datum
    x = d.letter((1,))
    nf = normal_form(rs, d.mul(x, x))
    assert nf == d.unit() - d.group_like(d.group.element((2,)))

    p, rs = rules_for("quantum_plane")
    d = p.datum
    nf = normal_form(rs, d.mul(d.letter((1,)), d.letter((2,))))
    assert nf == d.monomial(((2,), (1,))).scale(d.q_uv((1,), (2,)))

    p, rs = rules_for("weyl")
    d = p.datum
    nf = normal_form(rs, d.mul(d.letter((1,)), d.letter((2,))))
    assert nf == d.monomial(((2,), (1,))) + d.unit()


def test_normal_form_is_idempotent():
    p, rs = rules_for("uq_sl2")
    d = p.datum
    rng = random.Random(61)
    letters = list(d.L)
    for _ in range(25):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        a = d.monomial(word, (rng.randrange(3),), d.field.root(rng.randrange(3)))
        nf = normal_form(rs, a)
        assert normal_form(rs, nf) == nf


def test_rewrite_steps_strictly_decrease():
    p, rs = rules_for("lifting_a2_2b")
    d = p.datum
    rng = random.Random(67)
    letters = list(d.L)
    for _ in range(40):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        site = rs.find_site(word)
        if site is None:
            continue
        repl = rs.rewrite_at(word, d.group.identity(), site)
        for U, _g in repl.terms:
            assert prec_cmp(U, word) < 0


def test_normal_form_multiplicative_on_confluent_system():
    p, rs = rules_for("lifting_a2_4a")
    d = p.datum
    rng = random.Random(71)
    letters = list(d.L)
    for _ in range(15):
        a = d.monomial(tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))), (rng.randrange(12),))
        b = d.monomial(tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))), (rng.randrange(12),))
        assert normal_form(rs, d.mul(a, b)) == normal_form(rs, d.mul(normal_form(rs, a), normal_form(rs, b)))


def test_reduce_bounded():
    p, rs = rules_for("uq_sl2")
    d = p.datum
    assert reduce_bounded(rs, NCPoly.zero(), ((1,), (2,))).is_zero()
    # a rule element placed below the bound reduces to zero
    elem = d.monomial(((1,), (2,))) - rs.rules[((1,), (2,))]
    assert reduce_bounded(rs, elem, ((1,), (2,), (2,))).is_zero()
    # sites at or beyond the bound are left alone
    blocked = reduce_bounded(rs, d.monomial(((1,), (2,))), ((1,), (2,)))
    assert blocked == d.monomial(((1,), (2,)))


def rescan_reduce(rs, a, bound, reinserted=None, rewrite_at=None):
    """Reference reduction: after each rewrite, search every monomial for a
    site and rewrite the greatest reducible one, by `rewrite_at` (default
    rs.rewrite_at).  Appends to `reinserted` each monomial that a rewrite
    adds back after an earlier one cancelled it."""
    if rewrite_at is None:
        rewrite_at = type(rs).rewrite_at
    work = a.copy()
    cancelled = set()
    while True:
        sites = {}
        for mono in work.terms:
            if bound is not None and prec_cmp(mono[0], bound) >= 0:
                continue
            s = rs.find_site(mono[0])
            if s is not None:
                sites[mono] = s
        if not sites:
            return work
        mono = min(sites, key=lambda m: (greatest_first(m[0]), m[1]))
        c = work.terms.pop(mono)
        for m2, c2 in rewrite_at(rs, mono[0], mono[1], sites[mono]).terms.items():
            present = m2 in work.terms
            work.add_term(m2, c * c2)
            if present and m2 not in work.terms:
                cancelled.add(m2)
            elif not present and m2 in cancelled and reinserted is not None:
                reinserted.append(m2)


def random_poly(d, rng):
    """A product of a few random sums of letters and group-likes, so that
    equal words with different group parts meet."""
    letters = list(d.L)
    if d.group.is_finite():
        els = d.group.elements()
    else:
        els = [d.group.element(e) for e in itertools.product((-1, 0, 1), repeat=d.group.nfactors)]
    factors = []
    for _ in range(rng.randint(1, 4)):
        f = NCPoly.zero()
        for _ in range(rng.randint(1, 3)):
            coeff = d.field.root(rng.randrange(6))
            if rng.random() < 0.3:
                f = f + d.group_like(rng.choice(els), coeff)
            else:
                f = f + d.monomial((rng.choice(letters),), rng.choice(els), coeff)
        factors.append(f)
    return reduce(d.mul, factors)


def nf_expand_power(d, rng, k=6):
    """(z^a x1 + z^b x2 + z^c g1)^k with seeded exponents, the shape of the
    benchmark's nf-expand inputs."""
    m = d.field.unit_order
    base = d.monomial(((1,),), None, d.field.root(rng.randrange(m)))
    base = base + d.monomial(((2,),), None, d.field.root(rng.randrange(m)))
    base = base + d.group_like(d.group.element((1,) + (0,) * (d.group.nfactors - 1)), d.field.root(rng.randrange(m)))
    return reduce(d.mul, [base] * k)


# id -> (datum builder, whether to add nf-expand-shaped powers).  The
# tampered data are not confluent: rewrites cancel monomials that later
# rewrites insert again.
PARITY_DATA = {
    "uq_sl23": (lambda: build_preset("uq_sl2", N=3).datum, False),
    "uq_sl25": (lambda: build_preset("uq_sl2", N=5).datum, False),
    "uq_sl27": (lambda: build_preset("uq_sl2", N=7).datum, True),
    "lifting_a2_2a": (lambda: build_preset("lifting_a2_2a").datum, True),
    "b2_scaffold": (lambda: build_preset("b2_scaffold").datum, False),
    "uq_sl25_red12_1-g": (lambda: tampered_uq_sl2(5), False),
    "a3_nichols3_red13": (lambda: a3_nichols(3, "red_13"), False),
    "a2_nichols5_Z2": (lambda: a2_nichols(5, GroupSpec((), 2)), False),
}


@pytest.mark.parametrize("name", list(PARITY_DATA))
def test_heap_reduction_matches_the_rescan_term_for_term(name):
    make, powers = PARITY_DATA[name]
    d = make()
    rs = build_rules(d, bracket_table(d))
    rng = random.Random(73)
    inputs = [random_poly(d, rng) for _ in range(30)]
    if powers:
        inputs += [nf_expand_power(d, rng) for _ in range(2)]
    reinserted = []
    for a in inputs:
        expected = rescan_reduce(rs, a, None, reinserted)
        assert list(normal_form(rs, a).terms.items()) == list(expected.terms.items())
    table = bracket_table(d)
    for c in _conditions(d, table, "full"):
        bound = tuple(tuple(u) for u in c.bound)
        for a in (c.element, random_poly(d, rng), random_poly(d, rng)):
            expected = rescan_reduce(rs, a, bound, reinserted)
            assert list(reduce_bounded(rs, a, bound).terms.items()) == list(expected.terms.items())
    if name in ("uq_sl25_red12_1-g", "a3_nichols3_red13"):
        assert reinserted  # a cancelled monomial was added back


def test_site_searches_are_linear_in_the_terms_handled(monkeypatch):
    p, rs = rules_for("uq_sl2", N=3)
    d = p.datum
    a = reduce(d.mul, [d.letter((1,)) + d.letter((2,))] * 10)
    # each planned word's rows count as its produced terms: the distinct
    # words that its steps produce are at most that many
    counts = {"find_site": 0, "produced": 0, "planned": 0}
    find_site, rule_rows = rewrite.RuleSystem.find_site, rewrite.RuleSystem.rule_rows

    def counting_find_site(self, U):
        counts["find_site"] += 1
        return find_site(self, U)

    def counting_rule_rows(self, U, site):
        rows, untwisted = rule_rows(self, U, site)
        counts["planned"] += 1
        counts["produced"] += len(rows)
        return rows, untwisted

    monkeypatch.setattr(rewrite.RuleSystem, "find_site", counting_find_site)
    monkeypatch.setattr(rewrite.RuleSystem, "rule_rows", counting_rule_rows)
    normal_form(rs, a)
    assert counts["produced"] > 0
    assert counts["find_site"] <= len(a.terms) + counts["produced"]
    # a word's step is planned once, however many monomials carry it
    assert counts["planned"] <= counts["find_site"]


@pytest.mark.parametrize("name", ["lifting_a2_2a", "a3_nichols3_red13"])
def test_bounded_reduction_searches_each_word_once(name, monkeypatch):
    # per reduce_bounded: the bound is held only against the input terms,
    # each distinct word gets one site search, and word lengths are summed
    # once per distinct word and once for the bound
    import pbw.words

    d = PARITY_DATA[name][0]()
    rs = build_rules(d, bracket_table(d))
    counts = {"prec_cmp": 0, "find_site": 0, "xlen": 0}
    words = set()
    find_site, rule_rows = rewrite.RuleSystem.find_site, rewrite.RuleSystem.rule_rows

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def recording_rule_rows(self, U, site):
        # the words that the steps of U produce, whatever their group parts
        rows, untwisted = rule_rows(self, U, site)
        i, cut = site
        words.update(U[:i] + V + U[cut:] for V, _h, _c in rows)
        return rows, untwisted

    monkeypatch.setattr(rewrite, "prec_cmp", counting("prec_cmp", prec_cmp))
    monkeypatch.setattr(pbw.words, "xlen", counting("xlen", xlen))
    monkeypatch.setattr(rewrite.RuleSystem, "find_site", counting("find_site", find_site))
    monkeypatch.setattr(rewrite.RuleSystem, "rule_rows", recording_rule_rows)
    rewritten = 0
    for c in _conditions(d, bracket_table(d), "full"):
        element, bound = c.element, c.bound
        for key in counts:
            counts[key] = 0
        words.clear()
        words.update(U for U, _g in element.terms)
        reduce_bounded(rs, element, bound)
        assert counts["prec_cmp"] <= len(element.terms)
        assert counts["find_site"] <= len(words)
        assert counts["xlen"] <= len(words) + 1
        rewritten += len(words) > len({U for U, _g in element.terms})
    assert rewritten


def slice_scan_site(rs, U, bound=None):
    """Reference site search: at each position, slice out every power rule
    and then every pair rule."""
    if bound is not None and prec_cmp(U, bound) >= 0:
        return None
    powers = {lhs[0]: lhs for lhs in rs.rules if len(set(lhs)) == 1}
    for i, u in enumerate(U):
        power = powers.get(u)
        if power is not None and U[i:i + len(power)] == power:
            return (i, i + len(power))
        if i + 1 < len(U) and U[i:i + 2] in rs.rules:
            return (i, i + 2)
    return None


def run_words(d, rng, count):
    """Words of a few runs of one letter each: a run of a finite-height
    letter holds N_u - 1, N_u or N_u + 1 letters as often as 1 or 2."""
    for _ in range(count):
        U = ()
        for _ in range(rng.randint(0, 5)):
            u = rng.choice(d.L)
            n = d.heights[u]
            sizes = [1, 2] if n is None else [1, 2, max(n - 1, 1), n, n + 1]
            U += (u,) * rng.choice(sizes)
        yield U


@pytest.mark.parametrize("name", PRESET_NAMES + ("uq_sl2_three_letters",))
def test_run_site_search_matches_the_slice_scan(name):
    d = uq_sl2_three_letters() if name == "uq_sl2_three_letters" else build_preset(name).datum
    rs = build_rules(d, bracket_table(d))
    rng = random.Random(name)
    words = list(run_words(d, rng, 150))
    heights = {d.heights[u] for u in d.L}
    if name == "uq_sl2_three_letters":
        assert 1 in heights
    if name == "lifting_a2_1a":
        assert 2 in heights
    found = 0
    for U in words:
        for bound in (None, U, rng.choice(words), U + (d.L[0],), U[1:]):
            got = None if bound is not None and prec_cmp(U, bound) >= 0 else rs.find_site(U)
            assert got == slice_scan_site(rs, U, bound), (U, bound)
            found += got is not None
    assert found > 100


def general(x):
    """x with its root marker cleared, so that products take the general path."""
    return Cyclo(x.field, x.num, x.den) if isinstance(x, Cyclo) else x


def rewrite_at_reference(rs, U, g, site):
    """One rule application from scratch: every right-hand side term (V, h)
    is twisted by chi_right(h), read letter by letter off the right context,
    through the general scalar product."""
    d = rs.datum
    i, cut = site
    letters = [l for u in U[cut:] for l in u]
    m = d.field.unit_order
    out = NCPoly()
    for (V, h), c in rs.rules[U[i:cut]].terms.items():
        k = sum(d.chi[l - 1][f] * e for l in letters for f, e in enumerate(h)) % m
        out.add_term((U[:i] + V + U[cut:], d.group.mul(h, g)), general(c) * general(d.field.root(k)))
    return out


def all_sites(rs, U):
    """Every (i, cut) at which a left-hand side occurs in U."""
    return [(i, i + len(lhs)) for i in range(len(U)) for lhs in rs.rules if U[i:i + len(lhs)] == lhs]


REWRITE_DATA = {
    "uq_sl2_5": lambda: build_preset("uq_sl2", N=5).datum,
    "lifting_a2_2a": lambda: build_preset("lifting_a2_2a").datum,
    "b2_scaffold": lambda: build_preset("b2_scaffold").datum,
    "uq_sl2_F7": uq_sl2_over_f7,
}


@pytest.mark.parametrize("name", sorted(REWRITE_DATA))
def test_rewrite_at_matches_a_per_term_reference(name):
    d = REWRITE_DATA[name]()
    rs = build_rules(d, bracket_table(d))
    rng = random.Random(name)
    letters, els = sorted(d.L), d.group.elements()
    checked = 0
    for _ in range(150):
        U = tuple(rng.choice(letters) for _ in range(rng.randint(2, 7)))
        g = rng.choice(els)
        for site in all_sites(rs, U):
            expected = list(rewrite_at_reference(rs, U, g, site).terms.items())
            # the first call may fill the twist table, the second reads it
            assert list(rs.rewrite_at(U, g, site).terms.items()) == expected, (U, g, site)
            assert list(rs.rewrite_at(U, g, site).terms.items()) == expected, (U, g, site)
            checked += 1
    assert checked > 100
    # at most one table entry per rule and character value mod unit_order
    m, n = d.field.unit_order, d.group.nfactors
    assert len(rs._twisted) <= len(rs.rules) * m**n
    # and none for a rule whose right-hand side has no group part
    assert not any(lhs in rs._untwisted for lhs, _chi in rs._twisted)


def test_rule_systems_over_different_data_share_no_twist_table():
    # the same left-hand side and right context in two data with different
    # coefficients: each system rewrites by its own rule
    d1 = build_preset("lifting_a2_2a", mu1=1).datum
    d2 = build_preset("lifting_a2_2a", mu1=3).datum
    rs1, rs2 = (build_rules(d, bracket_table(d)) for d in (d1, d2))
    assert rs1._twisted is not rs2._twisted
    rng = random.Random(4)
    letters, els = sorted(d1.L), d1.group.elements()
    differed = 0
    for _ in range(60):
        U = tuple(rng.choice(letters) for _ in range(rng.randint(2, 6)))
        g = rng.choice(els)
        for site in all_sites(rs1, U):
            for rs in (rs1, rs2, rs1):
                assert rs.rewrite_at(U, g, site) == rewrite_at_reference(rs, U, g, site)
            differed += rs1.rewrite_at(U, g, site) != rs2.rewrite_at(U, g, site)
    assert differed > 0


# each datum with the left-hand sides of its rules whose right-hand side
# has a group part
TWIST_DATA = {
    "uq_sl25_red12_1-g": (lambda: tampered_uq_sl2(5), [((1,), (2,))]),
    "lifting_a2_2a": (
        lambda: build_preset("lifting_a2_2a").datum,
        [((1, 2), (2,)), ((1,), (1,), (1,)), ((1, 2), (1, 2)), ((2,), (2,))],
    ),
    "quantum_plane": (lambda: build_preset("quantum_plane").datum, []),
    "b2_scaffold": (lambda: build_preset("b2_scaffold").datum, []),
    "uq_sl2_F7": (uq_sl2_over_f7, [((1,), (2,))]),
    "a3_nichols3_red13": (lambda: a3_nichols(3, "red_13"), []),
}


@pytest.mark.parametrize("name", list(TWIST_DATA))
def test_reduction_without_twists_matches_an_always_twisting_rescan(name):
    # rules with no group part skip the twist: normal forms and bounded
    # reductions equal, term for term, a rescan that twists every right-hand
    # side term by a character read letter by letter off the right context
    make, twisted = TWIST_DATA[name]
    d = make()
    rs = build_rules(d, bracket_table(d))
    assert [lhs for lhs in rs.rules if lhs not in rs._untwisted] == twisted
    rng = random.Random(name)
    for a in [random_poly(d, rng) for _ in range(12)]:
        expected = rescan_reduce(rs, a, None, rewrite_at=rewrite_at_reference)
        assert list(normal_form(rs, a).terms.items()) == list(expected.terms.items())
    for c in _conditions(d, bracket_table(d), "full"):
        bound = tuple(tuple(u) for u in c.bound)
        for a in (c.element, random_poly(d, rng)):
            expected = rescan_reduce(rs, a, bound, rewrite_at=rewrite_at_reference)
            assert list(reduce_bounded(rs, a, bound).terms.items()) == list(expected.terms.items())


def test_normal_form_refuses_past_the_letter_limit(monkeypatch):
    p, rs = rules_for("quantum_plane")
    d = p.datum
    # x1^3 x2^3 takes 9 steps on words of 6 letters
    a = d.mul(d.monomial(((1,),) * 3), d.monomial(((2,),) * 3))
    nf = d.monomial(((2,),) * 3 + ((1,),) * 3).scale(d.q_uv((1,), (2,)) ** 9)
    monkeypatch.setattr(rewrite, "MAX_NF_LETTERS", 54)
    assert normal_form(rs, a) == nf
    monkeypatch.setattr(rewrite, "MAX_NF_LETTERS", 53)
    with pytest.raises(ValueError, match="more than 53 letters"):
        normal_form(rs, a)
    # bounded reduction has no letter limit
    assert reduce_bounded(rs, a, ((1,),) * 7) == nf


def test_pbw_words_match_irreducibility():
    p, rs = rules_for("uq_sl2")
    letters = sorted(rs.datum.L)
    produced = set(pbw_words(rs.datum, 8))

    frontier = [()]
    everything = [()]
    while frontier:
        frontier = [w + (l,) for w in frontier for l in letters if xlen(w) + len(l) <= 8]
        everything.extend(frontier)
    expected = {w for w in everything if rs.find_site(w) is None}
    assert produced == expected


def test_pbw_monomials_carry_every_group_element():
    monos = list(pbw_monomials(build_preset("taft", N=2).datum))
    assert len(monos) == 4
    assert {g for _w, g in monos} == {(0,), (1,)}


def test_dimension_examples():
    for name, kw, expected in [
        ("taft", {"N": 3}, 9),
        ("uq_sl2", {"N": 3}, 27),
        ("quantum_plane", {}, None),
    ]:
        assert dimension(build_preset(name, **kw).datum) == expected


def test_hilbert_quantum_plane():
    assert hilbert(build_preset("quantum_plane").datum, 5) == [1, 2, 3, 4, 5, 6]


def test_hilbert_counts_irreducible_words_by_length():
    for name in ("uq_sl2", "lifting_a2_2b", "b2_scaffold"):
        d = build_preset(name).datum
        coeffs = hilbert(d, 6)
        counted = [0] * 7
        for w in pbw_words(d, 6):
            counted[xlen(w)] += 1
        assert coeffs == counted


def test_oracle_matches_pbw_count_on_finite_presets():
    cases = [
        ("taft", {"N": 2}), ("taft", {"N": 3}), ("taft", {"N": 4}),
        ("radford", {"N": 2}), ("radford", {"N": 3}),
        ("book", {}), ("book", {"N": 5}), ("uq_sl2", {"N": 3}),
        ("nichols_a1xa1", {}), ("nichols_a1xa1", {"N1": 3, "N2": 4}),
        ("lifting_a1xa1", {"N": 2}),
    ]
    for name, kw in cases:
        p = build_preset(name, **kw)
        count = dimension(p.datum)
        assert count == p.expected_dimension
        assert count <= 200
        assert quotient_rank(p.datum) == count, name
    # every A2 lifting inside the oracle's budgets (lifting_a2_1c is not)
    for name in ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b"):
        p = build_preset(f"lifting_a2_{name}")
        assert dimension(p.datum) == p.expected_dimension
        assert quotient_rank(p.datum) == p.expected_dimension, name
