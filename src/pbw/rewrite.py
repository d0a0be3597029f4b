"""Rewriting in canonical monomials by one rule table: each left-hand side
word maps to its right-hand side.  Pair rules x_u x_v -> bracket rhs +
q_{u,v} x_v x_u (u < v in L) have the super word (u, v) as left-hand side,
power rules x_u^{N_u} -> redhat rhs the word (u,) * N_u.  A site is the span
(i, cut) of a left-hand side inside a word.  `rule_rows` is the one spelling
of a rule application: the rows (V, h, c) of the rule's right-hand side,
with c twisted by chi_right(h), the character of the right context U[cut:]
at h.  A rule whose right-hand side has no group part (every h the
identity) is its own rows, since the twist is then 1, and no character is
computed for it; the other rules keep their rows per (rule, chi_right mod
the unit order).  `rewrite_at` builds one rewrite as an NCPoly from them,
for the diamond of the check and the bounded span.
PBW monomial counting reads only the datum.

On canonical monomials the termination order reduces to the well-founded
order on the letter words; every rewrite step strictly decreases it.

Reduction pops reducible monomials greatest first from a heap and rewrites
each one once.  A rewrite adds only monomials strictly below the one it
removes, so the greatest live entry of the heap is always the greatest
reducible monomial of the work polynomial: the steps, and the order in which
terms enter the result, are those of rescanning every monomial after each
step.  It costs one heap entry per monomial inserted and, per distinct
word, one site search and one `rule_rows` call, instead of a search of
every term present per step.  A step then only slices the word at its
site, concatenates each row's word in, multiplies the group parts (not
for a rule without one) and the scalars, and merges each product into the
work polynomial; it builds no NCPoly and computes no character.
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
        # lhs -> the rows (V, h, c) of a right-hand side whose every term has
        # the identity group part: chi_right(h) = 1 for every right context,
        # so the rule's own terms serve each of its sites
        e = datum.group.identity()
        self._untwisted = {
            lhs: [(V, h, c) for (V, h), c in rhs.terms.items()]
            for lhs, rhs in rules.items()
            if all(h == e for _V, h in rhs.terms)
        }
        # (lhs, character of the right context mod unit_order) -> the rows
        # (V, h, chi(h) c) of the twisted right-hand side, for the other
        # rules; at most one entry per rule and character value, whatever
        # the input
        self._twisted = {}

    def find_site(self, U):
        """Leftmost reducible site (i, cut) in the word U, power rules first
        at each position.  One pass over the runs of equal letters: a power
        site starts at the first letter of a run of u exactly when the run
        holds at least N_u letters, and a pair site can start only at a
        run's last letter, because (u, u) is never a pair rule."""
        powers, rules = self._powers, self.rules
        n = len(U)
        i = 0
        while i < n:
            u = U[i]
            j = i + 1
            while j < n and U[j] == u:
                j += 1
            power = powers.get(u)
            if power is not None and j - i >= len(power):
                return (i, i + len(power))
            if j < n and (u, U[j]) in rules:
                return (j - 1, j + 1)
            i = j
        return None

    def rule_rows(self, U, site):
        """The right-hand side of the rule at the site (i, cut) of U as rows
        (V, h, c), twisted past the right context U[cut:]: c is the rule's
        coefficient times chi_right(h).  Returns (rows, untwisted); untwisted
        means every h is the identity, so that the rows are the rule's own
        terms and no character of U[cut:] is computed."""
        i, cut = site
        lhs = U[i:cut]
        rows = self._untwisted.get(lhs)
        if rows is not None:
            return rows, True
        d = self.datum
        m = d.field.unit_order
        key = (lhs, tuple([k % m for k in d.word_chi(U[cut:])]))
        rows = self._twisted.get(key)
        if rows is None:
            chi_right = key[1]
            rows = self._twisted[key] = [
                (V, h, d.twist(c, chi_right, h)) for (V, h), c in self.rules[lhs].terms.items()
            ]
        return rows, False

    def rewrite_at(self, U, g, site):
        """Replace the left-hand side U[i:cut] inside (U, g) by its right-hand
        side; the rhs group letters commute past the right context with
        character twists."""
        i, cut = site
        left, right = U[:i], U[cut:]
        group_product = self.datum.group_product
        rows, _untwisted = self.rule_rows(U, site)
        # the rows have distinct (V, h), so the products are distinct monomials
        return NCPoly({(left + V + right, group_product(h, g)): c for V, h, c in rows})


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
# letters in 0.26 s and x1^200*x2^200 16 M in 2.0 s; uq_sl2 N = 13
# (x1+x2)^14, with larger scalars, 0.37 M in 0.7 s (one core of a shared
# 2-core x86 host, Python 3.11).
MAX_NF_LETTERS = 2_000_000

_UNSEEN = object()


def _reduce(rs: RuleSystem, a: NCPoly, bound, max_letters=None) -> NCPoly:
    work = a.copy()
    terms = work.terms
    # heap entries (key, g, plan), key = greatest_first(U): the least is the
    # greatest reducible monomial; the group part breaks ties between equal
    # words, which fixes the term order in which the CLI prints the result.
    # A monomial is pushed when it enters the work polynomial; a contribution
    # to one already present changes only its coefficient.  `reducible` maps
    # each word met to its plan (key, i, cut, rows, untwisted), the step at
    # its site (i, cut) with the rows of rs.rule_rows, or to None when it is
    # not rewritten, so each word's key, site and rows are found once per
    # reduction and shared by every monomial that carries it.  Only input
    # words are held against the bound (by key: U precedes the bound exactly
    # when its key is greater), because every rewrite output precedes the
    # word it replaces.
    bound_key = None if bound is None else greatest_first(bound)
    find_site, rule_rows = rs.find_site, rs.rule_rows

    def plan(U, site, key=None):
        if site is None:
            return None
        return (greatest_first(U) if key is None else key, *site, *rule_rows(U, site))

    reducible = {}
    heap = []
    for U, g in terms:
        if U not in reducible:
            key = greatest_first(U)
            site = None if bound_key is not None and key <= bound_key else find_site(U)
            reducible[U] = plan(U, site, key)
        entry = reducible[U]
        if entry is not None:
            heap.append((entry[0], g, entry))
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    products, group_mul = rs.datum._products, rs.datum.group.mul
    letters = 0
    while heap:
        (_, U), g, (_, i, cut, rows, untwisted) = heappop(heap)
        c = terms.pop((U, g), None)
        if c is None:  # cancelled, or rewritten from an earlier entry
            continue
        letters += len(U)
        if max_letters is not None and letters > max_letters:
            raise ValueError(f"normal form rewrites more than {max_letters} letters")
        left, right = U[:i], U[cut:]
        # the rows have distinct (V, h), so the products are distinct monomials
        for V, h, c2 in rows:
            if untwisted:
                hg = g
            else:
                # Datum.group_product, inlined
                hg = products.get((h, g))
                if hg is None:
                    hg = products[h, g] = group_mul(h, g)
            m2 = (left + V + right, hg)
            # NCPoly.add_term, inlined; c * c2 is a product of nonzero scalars
            cur = terms.get(m2)
            if cur is not None:
                s = cur + c * c2
                if s.is_zero():
                    del terms[m2]
                else:
                    terms[m2] = s
                continue
            terms[m2] = c * c2
            W = m2[0]
            entry = reducible.get(W, _UNSEEN)
            if entry is _UNSEEN:
                entry = reducible[W] = plan(W, find_site(W))
            if entry is not None:
                heappush(heap, (entry[0], hg, entry))
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
