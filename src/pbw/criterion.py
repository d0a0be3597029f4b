"""Construction of the test elements (bracket-reduction table, Jacobi and
restricted Leibniz elements), the PBW check itself, and the redundant-
relation toolkit for rank-two and B2-shaped presentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from itertools import accumulate

from .algebra import NCPoly
from .rewrite import RuleSystem, build_rules, normal_form, reduce_bounded
from .oracle import span_contains  # noqa: F401  (the span reference's membership test)
from .words import format_word, greatest_first, shirshov_decompose, xlen


# ---------------------------------------------------------------------------
# bracket-reduction table
# ---------------------------------------------------------------------------

def bracket_table(datum) -> dict:
    """For every u < v in L, the reduction target T[u, v] of [x_u, x_v]: the
    letter x_{uv} or the stored relation right-hand side when uv splits as
    (u|v), and otherwise the value of the defining recursion
        delta_{u1}(T[u2, v]) + q_{u2,v} T[u1, v] x_{u2} - q_{u1,u2} x_{u2} T[u1, v]
    with (u1, u2) the decomposition of u.  delta_{u1} brackets x_{u1} into
    each full-length monomial U = U0 rest letter by letter, reading the first
    bracket as T[u1, U0]; the later brackets telescope to one q-commutator,
        sum_{i>=1} q_{u1,U[:i]} U[:i] [x_{u1}, x_{U_i}] U[i+1:]
            = [x_{u1}, U]_{q_{u1,U}} - [x_{u1}, x_{U0}]_{q_{u1,U0}} rest."""
    members = set(datum.L)
    pairs = sorted(
        ((u, v) for u in datum.L for v in datum.L if u < v),
        key=lambda p: (len(p[0]), p[0], p[1]),
    )
    table = {}
    for u, v in pairs:
        w = u + v
        if shirshov_decompose(w) == (u, v):
            if w in members:
                table[(u, v)] = datum.letter(w)
            else:
                table[(u, v)] = datum.reds[w].copy()
        else:
            u1, u2 = shirshov_decompose(u)
            t = _delta(datum, table, u1, table[(u2, v)], u2 + v)
            t = t + datum.mul(table[(u1, v)], datum.letter(u2)).scale(datum.q_uv(u2, v))
            t = t - datum.mul(datum.letter(u2), table[(u1, v)]).scale(datum.q_uv(u1, u2))
            table[(u, v)] = t
    return table


def _delta(datum, table, u1, a: NCPoly, tail) -> NCPoly:
    """delta_{u1}(a) for an entry a of the word tail: the telescoped sum on a
    full-length c U, c [x_{u1}, V g]_{q_{u1,tail}} on a shorter c V g.  On
    valid data no term of a is longer than tail, and a full-length one has
    no group part: validate's lower-terms shape, which the recursion keeps."""
    x_u1 = datum.letter(u1)
    out = NCPoly.zero()
    for (U, g), c in a.terms.items():
        if U and xlen(U) == len(tail):
            head = table[(u1, U[0])] - datum.q_commutator(x_u1, datum.letter(U[0]), datum.q_uv(u1, U[0]))
            t = datum.mul(head, datum.monomial(U[1:]))
            t = t + datum.q_commutator(x_u1, datum.monomial(U), datum.q_uv(u1, sum(U, ())))
        else:
            t = datum.q_commutator(x_u1, datum.monomial(U, g), datum.q_uv(u1, tail))
        out = out + t.scale(c)
    return out


# ---------------------------------------------------------------------------
# test elements
# ---------------------------------------------------------------------------

def jacobi_element(datum, table, u, v, w) -> NCPoly:
    """[T[u,v], x_w]_{q_{uv,w}} - [x_u, T[v,w]]_{q_{u,vw}}
       + q_{u,v} x_v [x_u, x_w] - q_{v,w} [x_u, x_w] x_v."""
    if not (u < v < w):
        raise ValueError("need u < v < w")
    xu, xv, xw = datum.letter(u), datum.letter(v), datum.letter(w)
    bruv, brvw = table[(u, v)], table[(v, w)]
    inner = datum.q_commutator(xu, xw, datum.q_uv(u, w))
    out = datum.q_commutator(bruv, xw, datum.q_uv(u + v, w))
    out = out - datum.q_commutator(xu, brvw, datum.q_uv(u, v + w))
    out = out + datum.mul(xv, inner).scale(datum.q_uv(u, v))
    out = out - datum.mul(inner, xv).scale(datum.q_uv(v, w))
    return out


def _nested_bracket(datum, t, u, qexp, left):
    """The N_u - 1 times nested q-commutator of x_u with t, step k twisting
    by q_k = zeta^(qexp + k q_uu): [x_u, [x_u, ... t]] when left, else
    [[... t, x_u], x_u].  With n = N_u - 1, r = q_uu and Q = zeta^qexp, the
    q-binomial theorem expands prod_{k=1..n} (L - q_k R), for commuting L
    and R, as sum_i (-Q)^i r^(i(i+1)/2) [n choose i]_r L^(n-i) R^i.  At
    every height that validate accepts, N_u = p^k ord r (k = 0 when p = 0),
    the q-Lucas theorem gives [n choose i]_r = (-1)^i r^(-i(i+1)/2), so the
    weight is Q^i: a term c V g of t, with s = chi_u(g), gives
        sum_i c Q^i s^i x_u^(n-i) V x_u^i g            (left)
        sum_i c Q^i s^(n-i) x_u^i V x_u^(n-i) g        (right)
    one rotation per coefficient.  Terms that share a word are merged: the
    value is the nested products', not their term order.  Raises ValueError
    at a height that validate rejects."""
    if violation := datum.height_violation(u):
        raise ValueError(violation)
    n = datum.heights[u] - 1
    chi_u = datum.word_chi((u,))
    powers = [(u,) * j for j in range(n + 1)]
    out = NCPoly()
    for (V, g), c in t.terms.items():
        s = datum.chi_apply_exp(chi_u, g)
        for i in range(n + 1):
            # j letters x_u stand right of V, each twisted by s
            j = i if left else n - i
            word = powers[n - i] + V + powers[i] if left else powers[i] + V + powers[n - i]
            out.add_term((word, g), c.times_root(i * qexp + j * s))
    return out


def _hat_bracket(datum, redhat, v, q, left):
    """[redhat, x_v]_q when left, else [x_v, redhat]_q, term by term: x_v
    passes the group part h of a term with the twist chi_v(h), in the term
    order of the two products."""
    chi_v = datum.word_chi((v,))
    twisted = [((W + (v,), h), datum.twist(c, chi_v, h)) for (W, h), c in redhat.terms.items()]
    plain = [(((v,) + W, h), c) for (W, h), c in redhat.terms.items()]
    first, second = (twisted, plain) if left else (plain, twisted)
    out = NCPoly(dict(first))
    for mono, c in second:
        out.add_term(mono, -(c * q))
    return out


def leibniz_le_element(datum, table, u, v) -> NCPoly:
    """For u < v with finite N_u: the N_u - 1 times nested bracket
    [x_u, ... [x_u, T[u,v]]_{q_uu q_uv} ...] minus [redhat_u, x_v]_{q_uv^N}.
    In closed form, with n = N_u - 1, each term c V g of T[u,v] gives
        sum_i c zeta^(i (q_uv + chi_u(g))) x_u^(n-i) V x_u^i g
    (zeta exponents throughout), summed over the terms; _nested_bracket has
    the derivation.  Raises ValueError at a height that validate rejects."""
    n = datum.heights[u]
    acc = _nested_bracket(datum, table[(u, v)], u, datum.q_exp(u, v), left=True)
    return acc - _hat_bracket(datum, datum.redhats[u], v, datum.field.root(n * datum.q_exp(u, v)), left=True)


def leibniz_self_element(datum, u) -> NCPoly:
    """-[redhat_u, x_u] at trivial twist."""
    return -_hat_bracket(datum, datum.redhats[u], u, datum.field.one(), left=True)


def leibniz_gt_element(datum, table, v, u) -> NCPoly:
    """For v < u with finite N_u: the left-nested bracket
    [...[T[v,u], x_u]_{q_vu q_uu} ...] minus [x_v, redhat_u]_{q_vu^N}.
    In closed form, with n = N_u - 1, each term c V g of T[v,u] gives
        sum_i c zeta^(i q_vu + (n-i) chi_u(g)) x_u^i V x_u^(n-i) g
    summed over the terms; _nested_bracket has the derivation.  Raises
    ValueError at a height that validate rejects."""
    n = datum.heights[u]
    acc = _nested_bracket(datum, table[(v, u)], u, datum.q_exp(v, u), left=False)
    return acc - _hat_bracket(datum, datum.redhats[u], v, datum.field.root(n * datum.q_exp(v, u)), left=False)


# ---------------------------------------------------------------------------
# bounded membership
# ---------------------------------------------------------------------------

# The bounded span, built placement by placement and decided by
# span_contains (bounded_span_elements, span_cosets): the exact reference
# against which the tests hold the diamond; check_pbw does not call it.  It
# builds placements of every character degree: on valid data those of
# another degree than the target share no monomial with it, so that
# span_contains leaves them out.
#
# Placement budget of bounded_span_elements: the placements a*lhs*b of at
# most as many letters as the bound, counted before any word is built.  The
# largest count that the tests build is 4,107, for tampered uq_sl2 N = 9
# (red_12 = 1 - g; 0.4 s).  At N = 11 and 13 the counts are 20,491 and
# 98,315 (1.4 s and 6 s on a shared 2-core x86-64 host); N = 15 is refused
# at 458,763 (35 s without the limit), and so is b2_scaffold with
# red_122 = -x2 x2 x1 at 15,606,751, where the span test ran for minutes.
MAX_SPAN_PLACEMENTS = 200_000


def bounded_span_elements(rs: RuleSystem, bound, cosets=None):
    """All rule elements a*(lhs - rhs)*b*h whose full word a*lhs*b precedes
    the bound, for every element h of the group, which must be finite.
    Group letters on the left are absorbed by character homogeneity, so
    contexts are words times a right group factor.  With cosets, a sorted
    list of group elements, only the h in it are built: the placement
    a*(lhs - rhs)*b*h lies in the coset h*H of the H of span_cosets, so for
    a union of cosets of H this keeps the placements that meet it.  The
    elements come placement by placement, each with its h in sorted order.
    Raises ValueError when there are more than MAX_SPAN_PLACEMENTS
    placements of at most as many letters as the bound."""
    datum = rs.datum
    hs = datum.group.elements() if cosets is None else cosets
    identity = datum.group.identity()
    # the products g*h for h in hs, in that order, built once per g
    shift = cache(lambda g: [datum.group.mul(g, h) for h in hs])

    letters = sorted(datum.L)
    bound = tuple(tuple(u) for u in bound)
    lb = xlen(bound)

    # exact[k], upto[k]: the numbers of context words of exactly and of at
    # most k original letters
    exact = [1]
    for k in range(1, lb + 1):
        exact.append(sum(exact[k - len(l)] for l in letters if len(l) <= k))
    upto = list(accumulate(exact))
    lengths = [xlen(lhs) for lhs in rs.rules if xlen(lhs) <= lb]
    placements = sum(exact[la] * upto[lb - ll - la] for ll in lengths for la in range(lb - ll + 1))
    if placements > MAX_SPAN_PLACEMENTS:
        raise ValueError(
            f"the span test below a bound of {lb} letters needs {placements} "
            f"placements, more than {MAX_SPAN_PLACEMENTS}"
        )

    # fits[k]: the context words of at most k original letters, with their
    # lengths, in the order of their construction
    all_words, frontier = [((), 0)], [((), 0)]
    while frontier:
        frontier = [(w + (l,), n + len(l)) for w, n in frontier for l in letters if n + len(l) <= lb]
        all_words.extend(frontier)
    fits = [[t for t in all_words if t[1] <= k] for k in range(lb + 1)]

    out = []
    for lhs in rs.rules:
        ll = xlen(lhs)
        if ll > lb:
            continue
        for a, la in fits[lb - ll]:
            for b, lb_ in fits[lb - ll - la]:
                U = a + lhs + b
                # U precedes the bound: fewer letters, or as many and
                # lexicographically bigger
                if la + ll + lb_ == lb and not U > bound:
                    continue
                placed = datum.monomial(U) - rs.rewrite_at(U, identity, (len(a), len(a) + len(lhs)))
                terms = [(V, shift(g), c) for (V, g), c in placed.terms.items()]
                for j in range(len(hs)):
                    out.append(NCPoly({(V, gh[j]): c for V, gh, c in terms}))
    return out


def span_cosets(rs: RuleSystem, a: NCPoly):
    """The sorted union of the cosets of H that hold a group part of a, with
    H generated by the group parts of the right-hand sides, so that every
    rule element holds its group parts in H.  Needs a finite group."""
    group = rs.datum.group
    H = group.subgroup({g for rhs in rs.rules.values() for _U, g in rhs.terms})
    return sorted({group.mul(g, k) for _U, g in a.terms for k in H})


def diamond_resolves(rs: RuleSystem, bound, sites):
    """Bergman's diamond on the bound word W: whether the one-step
    reductions of W at the two overlapping left-hand side sites have equal
    normal forms, normal_form(rewrite_at(W, e, s1) - rewrite_at(W, e, s2))
    == 0.  Raises ValueError past the rewrite limit of normal_form."""
    W = tuple(tuple(u) for u in bound)
    e = rs.datum.group.identity()
    s1, s2 = sites
    return normal_form(rs, rs.rewrite_at(W, e, s1) - rs.rewrite_at(W, e, s2)).is_zero()


def in_bounded_ideal(rs: RuleSystem, a: NCPoly, bound, sites):
    """Membership of a condition's element a in the span of the rule
    elements placed below its bound word W, over any group: deterministic
    bounded reduction first, and a nonzero residue decided by
    diamond_resolves on the overlap sites of the condition.  A resolving
    overlap puts a in the span.  A non-resolving one leaves a outside it
    when every ambiguity below W resolves (the local form of Bergman's
    argument), which is why check_pbw stops at the least failing condition.

    Returns (member, residue, used_diamond)."""
    residue = reduce_bounded(rs, a, bound)
    if residue.is_zero():
        return True, residue, False
    return diamond_resolves(rs, bound, sites), residue, True


# ---------------------------------------------------------------------------
# reports and the check itself
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    kind: str               # jacobi | leibniz_le | leibniz_self | leibniz_gt
    words: tuple
    condition_id: str       # the printed name, such as jacobi(1<12<2)
    bound: tuple            # the bound word W
    sites: tuple            # the two left-hand side sites of W that overlap
    build: partial = field(repr=False, compare=False)  # makes the element
    passed: bool | None = None     # None: not decided, above the least failure
    residue: NCPoly | None = None  # what bounded reduction left of the element
    used_diamond: bool = False     # whether the diamond decided a nonzero residue

    @cached_property
    def element(self) -> NCPoly:
        """The test element, built on first use."""
        return self.build()

    @property
    def residue_terms(self):
        return None if self.residue is None else len(self.residue.terms)

    def line(self):
        if self.passed is None:
            return f"{self.condition_id}: not decided"
        status = "pass" if self.passed else "FAIL"
        extra = ", diamond" if self.used_diamond else ""
        res = "" if self.passed else f", residue terms: {self.residue_terms}"
        return f"{self.condition_id}: {status}{extra}{res}"

    def to_json(self):
        return {
            "id": self.condition_id,
            "status": {True: "pass", False: "fail", None: "not decided"}[self.passed],
            "residue_terms": self.residue_terms,
            "diamond": self.used_diamond,
        }


@dataclass
class PBWReport:
    mode: str
    conditions: list
    table: dict

    @property
    def passed(self):
        return all(c.passed for c in self.conditions)

    def lines(self):
        out = [c.line() for c in self.conditions]
        out.append(f"verdict: {'PASS' if self.passed else 'FAIL'} ({self.mode} mode, {len(self.conditions)} conditions)")
        return out

    def to_json(self):
        return {
            "mode": self.mode,
            "verdict": "pass" if self.passed else "fail",
            "conditions": [c.to_json() for c in self.conditions],
        }


def _conditions(datum, table, mode):
    """The q-Jacobi conditions, then the restricted q-Leibniz conditions at
    each u of finite height, as ConditionReports whose elements are built on
    first use.  Reduced mode skips the conditions that the others imply."""
    L = datum.L
    members = set(L)
    f = format_word
    for i, u in enumerate(L):
        for j in range(i + 1, len(L)):
            v = L[j]
            if mode == "reduced" and u + v in members and shirshov_decompose(u + v) == (u, v):
                continue
            for w in L[j + 1:]:
                # the pairs uv and vw overlap in uvw
                yield ConditionReport("jacobi", (u, v, w), f"jacobi({f(u)}<{f(v)}<{f(w)})", (u, v, w),
                                      ((0, 2), (1, 3)), partial(jacobi_element, datum, table, u, v, w))
    for u in datum.d_set():
        n, fu = datum.heights[u], f(u)
        # the power u^N at shifts 0 and 1 of u^(N+1)
        yield ConditionReport("leibniz_self", (u,), f"leibniz({fu};{fu}={fu})", (u,) * (n + 1),
                              ((0, n), (1, n + 1)), partial(leibniz_self_element, datum, u))
        for v in L:
            if v > u:
                if mode == "reduced" and any(v == u + t for t in members):
                    continue
                # the power u^N at 0 and the pair uv at N - 1 of u^N v
                yield ConditionReport("leibniz_le", (u, v), f"leibniz({fu};{fu}<{f(v)})", (u,) * n + (v,),
                                      ((0, n), (n - 1, n + 1)), partial(leibniz_le_element, datum, table, u, v))
            elif v < u:
                if mode == "reduced" and any(v == t + u for t in members):
                    continue
                # the pair vu at 0 and the power u^N at 1 of v u^N
                yield ConditionReport("leibniz_gt", (v, u), f"leibniz({fu};{f(v)}<{fu})", (v,) + (u,) * n,
                                      ((0, 2), (1, n + 1)), partial(leibniz_gt_element, datum, table, v, u))


def check_pbw(datum, mode="full") -> PBWReport:
    """Evaluate the q-Jacobi and restricted q-Leibniz conditions; each test
    element must lie in the span of rule elements placed below its bound.
    The conditions are decided in the rewriting order of their bounds,
    least first, ties in their listed order, up to the first failure; the
    conditions above it stay not decided (passed None) and build no element.
    That FAIL is exact: it is the least among the listed conditions, so
    every listed ambiguity below its bound resolves.  A ValueError raised
    while building or deciding a condition, such as a normal form refused
    past MAX_NF_LETTERS, is raised again prefixed by the condition's id.
    A datum that validate rejects, outside the theorem, raises InvalidDatum."""
    if mode not in ("full", "reduced"):
        raise ValueError("mode must be 'full' or 'reduced'")
    datum.require_valid()
    table = bracket_table(datum)
    rules = build_rules(datum, table)
    conditions = list(_conditions(datum, table, mode))
    # greatest_first puts the least bound last; the reversed sort is stable
    for c in sorted(conditions, key=lambda c: greatest_first(c.bound), reverse=True):
        try:
            c.passed, c.residue, c.used_diamond = in_bounded_ideal(rules, c.element, c.bound, c.sites)
        except ValueError as e:
            raise ValueError(f"{c.condition_id}: {e}") from e
        if not c.passed:
            break
    return PBWReport(mode, conditions, table)


# ---------------------------------------------------------------------------
# redundant-relation toolkit
# ---------------------------------------------------------------------------

def forced_serre_from_power(datum, u, v, side) -> NCPoly:
    """The relation right-hand side forced by a height-2 power:
    side "left" gives the target for uuv via [redhat_u, x_v]_{q_uv^2},
    side "right" the target for uvv via [x_u, redhat_v]_{q_uv^2}."""
    u, v = tuple(u), tuple(v)
    q2 = datum.field.root(2 * datum.q_exp(u, v))
    if side == "left":
        if datum.heights.get(u) != 2:
            raise ValueError(f"height of {format_word(u)} must be 2")
        return datum.q_commutator(datum.redhats[u], datum.letter(v), q2)
    if side == "right":
        if datum.heights.get(v) != 2:
            raise ValueError(f"height of {format_word(v)} must be 2")
        return datum.q_commutator(datum.letter(u), datum.redhats[v], q2)
    raise ValueError("side must be 'left' or 'right'")


# level -> (the q-Jacobi triple u < v < w, the word whose relation the
# condition forces, its height: 1 for the commutator relation red_word, N for
# the power relation redhat_word); the liftings of Helbig-Lift in rank two
# and of B2 shape
FORCED_LEVELS = {
    "rank2-12": (((1,), (1, 2), (2,)), (1, 2), 2),
    "b2-11212": (((1,), (1, 1, 2), (2,)), (1, 1, 2, 1, 2), 1),
    "b2-112": (((1,), (1, 1, 2), (1, 2)), (1, 1, 2), 2),
    "b2-12": (((1, 1, 2), (1, 2), (2,)), (1, 2), 3),
}


def forced_power_from_jacobi(datum, table, level):
    """The relation that the q-Jacobi condition of a level forces.  Its
    element, normal-formed by every rule but the target's own, is c * lhs +
    rest; the condition holds only when lhs = -rest / c.  A commutator
    target's stored value is zeroed first, so that no rule or table entry
    uses it.  Returns (c, rhs, replaced word, replaced height), or None when
    c vanishes."""
    if level not in FORCED_LEVELS:
        raise ValueError(f"unknown level {level!r}")
    triple, word, n = FORCED_LEVELS[level]
    lhs = shirshov_decompose(word) if n == 1 else (word,) * n
    members = set(datum.L)
    needed = set(triple) | set(lhs) | {(i,) for u in triple for i in u}
    missing = [format_word(u) for u in sorted(needed) if u not in members]
    if missing:
        raise ValueError(f"{level} needs L to contain {missing}")
    if n > 1 and datum.heights.get(word) != n:
        raise ValueError(f"{level} needs height {n} for the word {format_word(word)}")
    if n == 1:
        datum = replace(datum, reds=datum.reds | {word: NCPoly.zero()})
        table = bracket_table(datum)
    rules = build_rules(datum, table).rules
    pruned = RuleSystem(datum, {k: r for k, r in rules.items() if k != lhs})
    rest = normal_form(pruned, jacobi_element(datum, table, *triple))
    coeff = rest.terms.pop((lhs, datum.group.identity()), None)
    if coeff is None:
        return None
    rhs = rest.scale(-coeff.inverse())
    if n == 1:
        rhs = rhs - datum.monomial(lhs[::-1]).scale(datum.q_uv(*lhs))
    if not datum.prec_L_check(rhs, (word,) * n):
        power = f"^{n}" if n > 1 else ""
        raise ValueError(f"forced right-hand side for {format_word(word)}{power} violates the lower-terms shape")
    return coeff, rhs, word, n


def generic_redundancies(datum, table):
    """Relations implied by the others: drop one rule, reduce its element by
    the remaining system, redundant when the normal form is zero.  Returns a
    list of ("red", w) labels: without its own rule a power u^N holds no
    other left-hand side ((u, u) is never a pair rule), so it never reduces.

    The datum must be valid.  Then x_u x_v, without its own rule, can be
    reduced only through the power rule of a letter of height one, and no
    rewrite produces it again; so only a red whose left-hand side (u, v)
    holds such a letter is tried, and every other one keeps its term."""
    candidates = [(shirshov_decompose(w), ("red", w)) for w in sorted(datum.reds)]
    candidates = [(lhs, label) for lhs, label in candidates if 1 in (datum.heights[u] for u in lhs)]
    if not candidates:
        return []
    rules = build_rules(datum, table).rules
    out = []
    for lhs, label in candidates:
        pruned = RuleSystem(datum, {k: r for k, r in rules.items() if k != lhs})
        if normal_form(pruned, datum.monomial(lhs) - rules[lhs]).is_zero():
            out.append(label)
    return out
