"""Rewriting in canonical monomials: pair rules x_u x_v -> bracket rhs +
q_{u,v} x_v x_u (u < v in L) and power rules x_u^{N_u} -> redhat rhs, with
normal forms, bounded reduction, and PBW monomial counting.

On canonical monomials the termination order reduces to the well-founded
order on the letter words; every rewrite step strictly decreases it.
"""

from __future__ import annotations

from .algebra import NCPoly
from .words import format_word, greatest_first, prec_cmp


class RuleSystem:
    def __init__(self, datum, pair_rhs, power_rhs):
        self.datum = datum
        self.pair_rhs = pair_rhs        # (u, v) with u < v in L -> NCPoly
        self.power_rhs = power_rhs      # u in D(L) -> NCPoly
        self.heights = datum.heights

    def find_site(self, U, bound=None):
        """Leftmost reducible site in the word U, power rules first at each
        position; sites are admissible only when U precedes the bound."""
        if bound is not None and prec_cmp(U, bound) >= 0:
            return None
        for i, u in enumerate(U):
            n = self.heights.get(u)
            if (
                n is not None
                and u in self.power_rhs
                and i + n <= len(U)
                and all(U[i + k] == u for k in range(1, n))
            ):
                return ("power", i, u, n)
            if i + 1 < len(U) and (u, U[i + 1]) in self.pair_rhs:
                return ("pair", i, u, U[i + 1])
        return None

    def rewrite_at(self, U, g, site):
        """Replace the matched left-hand side inside (U, g); the rhs group
        letters commute past the right context with character twists."""
        kind, i, u, x = site
        if kind == "power":
            rhs, cut = self.power_rhs[u], i + x
        else:
            rhs, cut = self.pair_rhs[(u, x)], i + 2
        d = self.datum
        left, right = U[:i], U[cut:]
        chi_right = d.chi_word([l for w in right for l in w])
        out = NCPoly()
        for (V, h), c in rhs.terms.items():
            tw = d.chi_apply(chi_right, h)
            out.add_term((left + V + right, d.group.mul(h, g)), c * tw)
        return out


def build_rules(datum, bracket_table) -> RuleSystem:
    """Assemble the rule set from a complete bracket-reduction table; every
    right-hand side is checked to precede its left-hand side."""
    pair_rhs = {}
    for (u, v), red in bracket_table.items():
        rhs = red + datum.monomial((v, u)).scale(datum.q_uv(u, v))
        _check_compatible(rhs, (u, v), f"pair rule {format_word(u)},{format_word(v)}")
        pair_rhs[(u, v)] = rhs
    power_rhs = {}
    for u in datum.d_set():
        n = datum.heights[u]
        rhs = datum.redhats[u]
        _check_compatible(rhs, (u,) * n, f"power rule {format_word(u)}^{n}")
        power_rhs[u] = rhs
    return RuleSystem(datum, pair_rhs, power_rhs)


def _check_compatible(rhs, lhs_word, name):
    for U, _g in rhs.terms:
        if prec_cmp(U, lhs_word) >= 0:
            raise ValueError(f"{name}: right-hand side term does not precede the left-hand side")


def _reduce(rs: RuleSystem, a: NCPoly, bound) -> NCPoly:
    work = a.copy()
    while True:
        sites = {}
        for mono in work.terms:
            s = rs.find_site(mono[0], bound)
            if s is not None:
                sites[mono] = s
        if not sites:
            return work
        # the group part breaks ties between equal words; it does not change
        # the result, only the term order in which the CLI prints it
        mono = min(sites, key=lambda m: (greatest_first(m[0]), m[1]))
        c = work.terms.pop(mono)
        repl = rs.rewrite_at(mono[0], mono[1], sites[mono])
        for m2, c2 in repl.terms.items():
            work.add_term(m2, c * c2)


def normal_form(rs: RuleSystem, a: NCPoly) -> NCPoly:
    """Rewrite until no monomial contains a left-hand side."""
    return _reduce(rs, a, None)


def reduce_bounded(rs: RuleSystem, a: NCPoly, bound) -> NCPoly:
    """Like normal_form but a rewrite is permitted only at monomials that
    strictly precede the bound word; a zero result certifies membership in
    the bounded span of rule elements."""
    return _reduce(rs, a, tuple(tuple(u) for u in bound))


def is_irreducible_word(rs: RuleSystem, U) -> bool:
    return rs.find_site(U) is None


def pbw_words(rs: RuleSystem, max_len=None):
    """Irreducible words: strictly decreasing letter blocks with exponents
    below the heights; each word is produced exactly once."""
    letters = sorted(rs.datum.L, reverse=True)

    def gen(start, remaining):
        yield ()
        for idx in range(start, len(letters)):
            u = letters[idx]
            n = rs.heights[u]
            r, lu = 1, len(u)
            while (n is None or r < n) and (remaining is None or r * lu <= remaining):
                rem = None if remaining is None else remaining - r * lu
                for tail in gen(idx + 1, rem):
                    yield (u,) * r + tail
                r += 1

    return gen(0, max_len)


def pbw_monomials(rs: RuleSystem, max_len=None):
    """Irreducible canonical monomials, one per irreducible word and group
    element; requires a finite group."""
    els = rs.datum.group.elements()
    for w in pbw_words(rs, max_len):
        for g in els:
            yield (w, g)


def dimension(datum):
    """Product of the heights times the group order; None when infinite."""
    total = datum.group.order()
    if total is None:
        return None
    for u in datum.L:
        n = datum.heights[u]
        if n is None:
            return None
        total *= n
    return total


def hilbert(rs: RuleSystem, max_deg: int):
    """Counts of irreducible words by original-letter length, degrees
    0..max_deg (group factors not counted)."""
    coeffs = [1] + [0] * max_deg
    for u in rs.datum.L:
        n = rs.heights[u]
        lu = len(u)
        rmax = max_deg // lu if n is None else min(n - 1, max_deg // lu)
        factor = [0] * (max_deg + 1)
        for r in range(rmax + 1):
            if r * lu <= max_deg:
                factor[r * lu] = 1
        out = [0] * (max_deg + 1)
        for i, c in enumerate(coeffs):
            if c:
                for j in range(0, max_deg + 1 - i):
                    if factor[j]:
                        out[i + j] += c
        coeffs = out
    return coeffs
