"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import random
import time
from dataclasses import replace

from pbw.algebra import NCPoly
from pbw.criterion import bracket_table, check_pbw, forced_power_from_jacobi, forced_serre_from_power
from pbw.oracle import quotient_rank
from pbw.presets import PRESET_NAMES, build_preset
from pbw.rewrite import build_rules, dimension, hilbert, normal_form
from pbw.scalars import CycloField, PrimeField, binom_vanishes, binom_vanishes_closed_form, q_binomial
from pbw.words import is_lyndon, longest_lyndon_proper_ending_split, lyndon_up_to, shirshov_decompose


def report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: classical dimensions, exact, each under five seconds -------

def test_criterion_1_classical_dimensions():
    cases = [
        ("taft", {"N": 2}, 4), ("taft", {"N": 3}, 9), ("taft", {"N": 4}, 16),
        ("radford", {"N": 2}, 8), ("radford", {"N": 3}, 27),
        ("book", {"N": 3}, 27),
        ("uq_sl2", {"N": 3}, 27), ("uq_sl2", {"N": 5}, 125),
    ]
    timings = []
    for name, kw, expected in cases:
        t0 = time.time()
        p = build_preset(name, **kw)
        count = dimension(p.datum)
        rank = quotient_rank(p.datum)
        elapsed = time.time() - t0
        timings.append(elapsed)
        assert count == expected == rank, (name, kw, count, rank)
        assert elapsed < 5.0, (name, kw, elapsed)
    report(
        "criterion 1 (classical dimensions, PBW count and oracle rank)",
        True,
        f"8 algebras, max {max(timings):.2f}s",
    )


# -- criterion 2: the A2-type lifting cases ----------------------------------

def test_criterion_2_lifting_cases():
    details = []
    for name in ("lifting_a2_1a", "lifting_a2_2b", "lifting_a2_4a", "lifting_a2_4b"):
        t0 = time.time()
        p = build_preset(name)
        full = check_pbw(p.datum, mode="full")
        reduced = check_pbw(p.datum, mode="reduced")
        assert full.passed and reduced.passed, name
        if name == "lifting_a2_1a":
            assert dimension(p.datum) == 8 * p.datum.group.order()
        elapsed = time.time() - t0
        assert elapsed < 30.0, (name, elapsed)
        details.append(f"{name.split('_')[-1]} {elapsed:.2f}s")
    report("criterion 2 (lifting cases pass in both modes)", True, ", ".join(details))


# -- criterion 3: redundancy reproduction ------------------------------------

def test_criterion_3_redundancy_reproduction():
    d1a = build_preset("lifting_a2_1a").datum
    left = forced_serre_from_power(d1a, (1,), (2,), "left")
    right = forced_serre_from_power(d1a, (1,), (2,), "right")
    assert left.is_zero() and right.is_zero()

    d2b = build_preset("lifting_a2_2b").datum
    got = forced_power_from_jacobi(d2b, bracket_table(d2b), "rank2-12")
    assert got is not None
    coeff, rhs, word, n = got
    f = d2b.field
    i, one = f.root(1), f.one()
    # the displayed value: -q12^-1 (q11+1)^-1 (2 lam x2 - mu (q21^2-1)(1-q11 q21^2) x1^2 g2^2)
    lead = -((-one).inverse()) * (i + one).inverse()
    expect = NCPoly()
    expect.add_term((((2,),), (0,)), lead * f.from_rational(2))
    expect.add_term((((1,), (1,)), (2,)), -lead * (i * i - one) * (one - i * i * i))
    assert (word, n) == ((1, 2), 2)
    assert rhs == expect == d2b.redhats[(1, 2)]
    assert coeff == i * (-one) - (-one) * (-one)  # q_{1,12} - q_{12,2}
    report("criterion 3 (forced relations coefficient-for-coefficient)", True)


# -- criterion 4: negative controls ------------------------------------------

def tampered_instances():
    """(description, datum, margin) triples; every instance has a finite
    group, dimension at most 64, and respects character homogeneity."""
    out = []

    d = build_preset("uq_sl2").datum
    bad = NCPoly()
    bad.add_term(((), (0,)), d.field.one())
    bad.add_term(((), (1,)), -d.field.one())
    out.append(("uq_sl2 with red_12 = 1 - g", replace(d, reds={(1, 2): bad}), 2))

    d = build_preset("radford", N=2).datum
    bad = NCPoly()
    bad.add_term(((), (1,)), d.field.one())
    out.append(("radford with redhat_1 = g", replace(d, redhats={(1,): bad}), 3))

    d = build_preset("uq_sl2").datum
    out.append(("uq_sl2 with height 2 at x1", replace(d, heights={(1,): 2, (2,): 3}), 2))

    d = build_preset("lifting_a1xa1", N=2).datum
    bad = NCPoly()
    bad.add_term(((), (0, 0)), d.field.one())
    bad.add_term(((), (1, 0)), -d.field.one())  # 1 - g1 instead of 1 - g1 g2
    out.append(("a1xa1 lifting with red_12 = 1 - g1", replace(d, reds={(1, 2): bad}), 2))

    return out


def test_criterion_4_negative_controls():
    details = []
    for desc, d, margin in tampered_instances():
        rep = check_pbw(d)
        count = dimension(d)
        assert count <= 64, (desc, count)
        rank = quotient_rank(d, margin=margin)
        failed = not rep.passed
        dropped = rank < count
        assert failed and dropped, (desc, failed, rank, count)
        details.append(f"{desc}: rank {rank} < {count}")
    report("criterion 4 (tampering fails the check and drops the rank)", True, "; ".join(details))


# -- criterion 5: identity suite ----------------------------------------------

def _playground(m=12):
    from pbw.algebra import Datum, GroupSpec

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


def _random_poly(d, rng, max_terms=5):
    p = NCPoly()
    letters = [(1,), (2,), (1, 2)]
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        p.add_term((word, (rng.randrange(12),)), d.field.root(rng.randrange(12)))
    return p


def _power(d, a, r):
    out = d.unit()
    for _ in range(r):
        out = d.mul(out, a)
    return out


def _nested_right(d, a, b, q, zeta, count):
    out = a
    for k in range(count):
        out = d.q_commutator(out, b, q * zeta ** k)
    return out


def _nested_left(d, a, b, q, zeta, count):
    out = b
    for k in range(count):
        out = d.q_commutator(a, out, q * zeta ** k)
    return out


def test_criterion_5_identity_suite():
    d = _playground()
    f = d.field
    rng = random.Random(2024)
    counts = {1: 0, 2: 0, 3: 0, 4: 0}

    for _ in range(200):  # derivation property
        a, b, c = (_random_poly(d, rng) for _ in range(3))
        q, qp = f.root(rng.randrange(12)), f.root(rng.randrange(12))
        assert d.q_commutator(a, d.mul(b, c), q * qp) == (
            d.mul(d.q_commutator(a, b, q), c) + d.mul(b, d.q_commutator(a, c, qp)).scale(q)
        )
        counts[1] += 1

    for _ in range(200):  # Jacobi
        a, b, c = (_random_poly(d, rng) for _ in range(3))
        q, qp, qpp = (f.root(rng.randrange(12)) for _ in range(3))
        lhs = d.q_commutator(d.q_commutator(a, b, qp), c, qpp * q)
        rhs = (
            d.q_commutator(a, d.q_commutator(b, c, q), qp * qpp)
            - d.mul(b, d.q_commutator(a, c, qpp)).scale(qp)
            + d.mul(d.q_commutator(a, c, qpp), b).scale(q)
        )
        assert lhs == rhs
        counts[2] += 1

    for _ in range(50):  # Leibniz expansions, r = 1..4 gives 200 instances
        a, b = _random_poly(d, rng, 3), _random_poly(d, rng, 3)
        q, zeta = f.root(rng.randrange(12)), f.root(rng.randrange(12))
        for r in range(1, 5):
            lhs = d.q_commutator(a, _power(d, b, r), q ** r)
            rhs = NCPoly.zero()
            for i in range(r):
                coeff = q ** i * q_binomial(r, i, zeta)
                rhs = rhs + d.mul(_power(d, b, i), _nested_right(d, a, b, q, zeta, r - i)).scale(coeff)
            assert lhs == rhs
            lhs2 = d.q_commutator(_power(d, a, r), b, q ** r)
            rhs2 = NCPoly.zero()
            for i in range(r):
                coeff = q ** i * q_binomial(r, i, zeta)
                rhs2 = rhs2 + d.mul(_nested_left(d, a, b, q, zeta, r - i), _power(d, a, i)).scale(coeff)
            assert lhs2 == rhs2
            counts[3] += 1

    for _ in range(67):  # restricted Leibniz at exact orders 2, 3, 4
        a, b = _random_poly(d, rng, 3), _random_poly(d, rng, 3)
        q = f.root(rng.randrange(12))
        for r in (2, 3, 4):
            zeta = f.root(12 // r)
            assert d.q_commutator(a, _power(d, b, r), q ** r) == _nested_right(d, a, b, q, zeta, r)
            assert d.q_commutator(_power(d, a, r), b, q ** r) == _nested_left(d, a, b, q, zeta, r)
            counts[4] += 1

    assert all(n >= 200 for n in counts.values()), counts

    # q-Pascal identities for n <= 6 over the whole twist group
    for k in range(12):
        q = f.root(k)
        for n in range(1, 7):
            for i in range(1, n + 1):
                b = q_binomial(n + 1, i, q)
                assert q ** i * q_binomial(n, i, q) + q_binomial(n, i - 1, q) == b
                assert q_binomial(n, i, q) + q ** (n + 1 - i) * q_binomial(n, i - 1, q) == b

    # binomial theorem under y x = q x y for n <= 6
    p = build_preset("quantum_plane", m=12, k=11)
    dq = p.datum
    rules = build_rules(dq, bracket_table(dq))
    q = dq.field.root(1)
    x, y = dq.letter((1,)), dq.letter((2,))
    for n in range(7):
        lhs = normal_form(rules, _power(dq, x + y, n))
        rhs = NCPoly.zero()
        for i in range(n + 1):
            rhs = rhs + dq.mul(_power(dq, x, i), _power(dq, y, n - i)).scale(q_binomial(n, i, q))
        assert lhs == normal_form(rules, rhs)

    # vanishing table for n <= 12 over the cyclotomic and prime fields
    for field in (CycloField(12), PrimeField(2), PrimeField(3)):
        rng_units = range(field.unit_order) if field.characteristic else range(field.m)
        for k in rng_units:
            qv = field.root(k)
            for n in range(2, 13):
                assert binom_vanishes(n, qv) == binom_vanishes_closed_form(n, qv)

    report("criterion 5 (identity suite)", True, f"instances {counts}")


# -- criterion 6: combinatorics ------------------------------------------------

def test_criterion_6_combinatorics():
    words = lyndon_up_to(2, 8)
    counts = [sum(1 for w in words if len(w) == n) for n in range(1, 9)]
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30]

    def brute_split(u):
        i = min(range(1, len(u)), key=lambda j: u[j:])
        return u[:i], u[i:]

    checked = 0
    for k in range(2, 9):
        for u in itertools.product((1, 2), repeat=k):
            assert shirshov_decompose(u) == brute_split(u)
            checked += 1
    lyndon_checked = 0
    for u in words:
        if len(u) >= 2:
            assert is_lyndon(u)
            assert shirshov_decompose(u) == longest_lyndon_proper_ending_split(u)
            lyndon_checked += 1
    report("criterion 6 (combinatorics)", True, f"{checked} splits, {lyndon_checked} Lyndon words")


# -- criterion 7: infinite cases -----------------------------------------------

def test_criterion_7_infinite_cases():
    p = build_preset("quantum_plane")
    assert hilbert(p.datum, 10) == [d + 1 for d in range(11)]

    p = build_preset("weyl")
    d = p.datum
    rules = build_rules(d, bracket_table(d))
    nf = normal_form(rules, d.mul(d.letter((1,)), d.letter((2,))))
    assert nf == d.monomial(((2,), (1,))) + d.unit()
    report("criterion 7 (quantum plane counts, Weyl normal form)", True)


# -- criterion 8: mode agreement -------------------------------------------------

def test_criterion_8_mode_agreement():
    instances = []
    for name in PRESET_NAMES:
        instances.append((name, build_preset(name).datum))
    for desc, datum, _margin in tampered_instances():
        instances.append((desc, datum))

    assert len(instances) >= 20
    agreed = 0
    for desc, datum in instances:
        full = check_pbw(datum, mode="full")
        reduced = check_pbw(datum, mode="reduced")
        assert full.passed == reduced.passed, desc
        agreed += 1
    report("criterion 8 (full and reduced verdicts agree)", True, f"{agreed} instances")
