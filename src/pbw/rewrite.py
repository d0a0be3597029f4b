"""Rewriting in canonical monomials by one rule table: each left-hand side
word maps to its right-hand side.  Pair rules x_u x_v -> bracket rhs +
q_{u,v} x_v x_u (u < v in L) have the super word (u, v) as left-hand side,
power rules x_u^{N_u} -> redhat rhs the word (u,) * N_u.  A site is the span
(i, cut) of a left-hand side inside a word, and `rewrite_at` is the one rule
application, used by normal forms, bounded reduction and the bounded span.
PBW monomial counting reads only the datum.

On canonical monomials the termination order reduces to the well-founded
order on the letter words; every rewrite step strictly decreases it.

Reduction pops reducible monomials greatest first from a heap and rewrites
each one once.  A rewrite adds only monomials strictly below the one it
removes, so the greatest live entry of the heap is always the greatest
reducible monomial of the work polynomial: the steps, and the order in which
terms enter the result, are those of rescanning every monomial after each
step, at one site search per term added instead of per term present.
"""

from __future__ import annotations

import heapq

from .algebra import NCPoly
from .words import format_word, greatest_first, prec_cmp


class RuleSystem:
    def __init__(self, datum, rules):
        self.datum = datum
        self.rules = rules              # left-hand side word -> NCPoly
        # letter u -> (u,) * N_u, for the power rules present
        self._powers = {lhs[0]: lhs for lhs in rules if _is_power(lhs)}
        # (lhs, character of the right context mod unit_order) -> the rows
        # (V, h, chi(h) c) of the twisted right-hand side; at most one entry
        # per rule and character value, whatever the input
        self._twisted = {}

    def find_site(self, U, bound=None):
        """Leftmost reducible site (i, cut) in the word U, power rules first
        at each position; sites are admissible only when U precedes the
        bound."""
        if bound is not None and prec_cmp(U, bound) >= 0:
            return None
        for i, u in enumerate(U):
            power = self._powers.get(u)
            if power is not None and U[i:i + len(power)] == power:
                return (i, i + len(power))
            if i + 1 < len(U) and U[i:i + 2] in self.rules:
                return (i, i + 2)
        return None

    def rewrite_at(self, U, g, site):
        """Replace the left-hand side U[i:cut] inside (U, g) by its right-hand
        side; the rhs group letters commute past the right context with
        character twists."""
        i, cut = site
        d = self.datum
        lhs, left, right = U[i:cut], U[:i], U[cut:]
        m = d.field.unit_order
        key = (lhs, tuple(k % m for k in d.word_chi(right)))
        rows = self._twisted.get(key)
        if rows is None:
            chi_right = key[1]
            rows = self._twisted[key] = [
                (V, h, d.twist(c, chi_right, h)) for (V, h), c in self.rules[lhs].terms.items()
            ]
        # the rows have distinct (V, h), so the products are distinct monomials
        gmul = d.group.mul
        return NCPoly({(left + V + right, gmul(h, g)): c for V, h, c in rows})


def _is_power(lhs):
    return lhs.count(lhs[0]) == len(lhs)


def build_rules(datum, bracket_table) -> RuleSystem:
    """Assemble the rule table from a complete bracket-reduction table and
    the datum's power relations; every right-hand side is checked to
    precede its left-hand side."""
    rules = {
        (u, v): red + datum.monomial((v, u)).scale(datum.q_uv(u, v))
        for (u, v), red in bracket_table.items()
    }
    rules.update(((u,) * datum.heights[u], datum.redhats[u]) for u in datum.d_set())
    for lhs, rhs in rules.items():
        if any(prec_cmp(U, lhs) >= 0 for U, _g in rhs.terms):
            if _is_power(lhs):
                name = f"power rule {format_word(lhs[0])}^{len(lhs)}"
            else:
                name = f"pair rule {format_word(lhs[0])},{format_word(lhs[1])}"
            raise ValueError(f"{name}: right-hand side term does not precede the left-hand side")
    return RuleSystem(datum, rules)


# letters of the rewritten words summed over the steps of one normal form.
# The parse limits of pbw.exprs do not bound this: quantum_plane x1^n*x2^n
# takes n^2 steps on words of 2n letters.  x1^100*x2^100 rewrites 2.0 M
# letters in 0.7 s and x1^200*x2^200 16 M in 5.4 s; uq_sl2 N = 13 (x1+x2)^14,
# with larger scalars, 0.37 M in 1.6 s (one core of a 2-core x86 host,
# Python 3.11).
MAX_NF_LETTERS = 2_000_000


def _reduce(rs: RuleSystem, a: NCPoly, bound, max_letters=None) -> NCPoly:
    work = a.copy()
    terms = work.terms
    # heap entries (greatest_first(U), g, site): the least key is the
    # greatest reducible monomial; the group part breaks ties between equal
    # words, which fixes the term order in which the CLI prints the result.
    # Each word's key is computed once per reduction.
    keys = {}
    heap = []
    for U, g in terms:
        site = rs.find_site(U, bound)
        if site is not None:
            key = keys.get(U)
            if key is None:
                key = keys[U] = greatest_first(U)
            heap.append((key, g, site))
    heapq.heapify(heap)
    letters = 0
    while heap:
        (_, U), g, site = heapq.heappop(heap)
        c = terms.pop((U, g), None)
        if c is None:  # cancelled, or an earlier entry already rewrote it
            continue
        letters += len(U)
        if max_letters is not None and letters > max_letters:
            raise ValueError(f"normal form rewrites more than {max_letters} letters")
        for m2, c2 in rs.rewrite_at(U, g, site).terms.items():
            # NCPoly.add_term, inlined; c * c2 is a product of nonzero scalars
            cur = terms.get(m2)
            if cur is None:
                terms[m2] = c * c2
            else:
                s = cur + c * c2
                if s.is_zero():
                    del terms[m2]
                else:
                    terms[m2] = s
            V = m2[0]
            site2 = rs.find_site(V, bound)
            if site2 is not None:
                key = keys.get(V)
                if key is None:
                    key = keys[V] = greatest_first(V)
                heapq.heappush(heap, (key, m2[1], site2))
    return work


def normal_form(rs: RuleSystem, a: NCPoly) -> NCPoly:
    """Rewrite until no monomial contains a left-hand side.  Refuses with
    ValueError past MAX_NF_LETTERS letters of rewritten words."""
    return _reduce(rs, a, None, MAX_NF_LETTERS)


def reduce_bounded(rs: RuleSystem, a: NCPoly, bound) -> NCPoly:
    """Like normal_form but a rewrite is permitted only at monomials that
    strictly precede the bound word; a zero result certifies membership in
    the bounded span of rule elements."""
    return _reduce(rs, a, tuple(tuple(u) for u in bound))


def pbw_words(datum, max_len=None):
    """Irreducible words: strictly decreasing letter blocks with exponents
    below the heights; each word is produced exactly once."""
    letters = sorted(datum.L, reverse=True)

    def gen(start, remaining):
        yield ()
        for idx in range(start, len(letters)):
            u = letters[idx]
            n = datum.heights[u]
            r, lu = 1, len(u)
            while (n is None or r < n) and (remaining is None or r * lu <= remaining):
                rem = None if remaining is None else remaining - r * lu
                for tail in gen(idx + 1, rem):
                    yield (u,) * r + tail
                r += 1

    return gen(0, max_len)


def pbw_monomials(datum, max_len=None):
    """Irreducible canonical monomials, one per irreducible word and group
    element; requires a finite group."""
    els = datum.group.elements()
    for w in pbw_words(datum, max_len):
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


def hilbert(datum, max_deg: int):
    """Counts of irreducible words by original-letter length, degrees
    0..max_deg (group factors not counted)."""
    coeffs = [1] + [0] * max_deg
    for u in datum.L:
        n = datum.heights[u]
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
