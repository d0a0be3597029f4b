"""Independent linear-algebra checks: exact sparse row reduction, membership
in a spanned subspace, and the quotient-dimension estimate obtained by
Gaussian elimination on the degree-truncated span of the defining ideal.

The quotient estimate works over the original letters only (super letters
are expanded through their commutator polynomials), so it shares nothing
with the rewriting engine.
"""

from __future__ import annotations

from .algebra import NCPoly
from .words import greatest_first, xlen


class Echelon:
    """Incremental row echelon over an exact field; rows are sparse dicts
    keyed by orderable column labels, and the least label leads a row."""

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
                cur = row.get(k)
                s = (cur - c * v) if cur is not None else -(c * v)
                if s.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = s
        return None, None

    def insert(self, row) -> bool:
        """Add a row; True when it enlarged the span."""
        red, lead = self._reduce(row)
        if red is None:
            return False
        inv = red[lead].inverse()
        self.pivots[lead] = {k: v * inv for k, v in red.items()}
        return True

    def contains(self, row) -> bool:
        red, _ = self._reduce(row)
        return red is None

    @property
    def rank(self):
        return len(self.pivots)


def poly_row(a: NCPoly):
    """Row with the labels (*greatest_first(U), g): the least label is the
    greatest monomial in the rewriting order."""
    return {(*greatest_first(U), g): c for (U, g), c in a.terms.items()}


def span_contains(elements, target: NCPoly) -> bool:
    """Exact membership of target in the linear span of the given polynomials."""
    ech = Echelon()
    for e in elements:
        if not e.is_zero():
            ech.insert(poly_row(e))
    return ech.contains(poly_row(target))


# ---------------------------------------------------------------------------
# quotient dimension estimate
# ---------------------------------------------------------------------------

def ideal_generators_expanded(datum):
    """The defining elements over the original letters: commutator relations
    [w] - red_w for w in C(L) and power relations [u]^N - redhat_u."""
    gens = []
    for w, red in sorted(datum.reds.items()):
        lhs = datum.expand_superletter(w)
        gens.append(lhs - datum.expand_to_letters(red))
    for u in sorted(datum.redhats.keys()):
        n = datum.heights[u]
        base = datum.expand_superletter(u)
        lhs = base
        for _ in range(n - 1):
            lhs = datum.mul(lhs, base)
        gens.append(lhs - datum.expand_to_letters(datum.redhats[u]))
    return gens


def _all_words(theta, max_len):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + ((i,),) for w in layer for i in range(1, theta + 1)]
        out.extend(layer)
    return out


def quotient_rank(datum, margin=0) -> int:
    """Dimension of the span of words*group modulo the degree-truncated ideal
    span; for a confluent presentation this equals the true dimension once
    the truncation length reaches the longest basis monomial.

    Requires a finite group.  The truncation length is the total nilpotency
    length plus the margin.
    """
    if not datum.group.is_finite():
        raise ValueError("quotient rank needs a finite group")
    max_len = margin
    for u in datum.L:
        n = datum.heights[u]
        if n is None:
            raise ValueError("quotient rank needs finite heights")
        max_len += (n - 1) * len(u)

    gens = ideal_generators_expanded(datum)
    words = _all_words(datum.theta, max_len)
    els = datum.group.elements()
    ncols = len(words) * len(els)

    homogeneous = all(datum.char_degree(r) is not None for r in gens if not r.is_zero())
    ech = Echelon()
    ident = datum.group.identity()
    for r in gens:
        if r.is_zero():
            continue
        deg = max(xlen(U) for U, _ in r.terms)
        left_gs = [ident] if homogeneous else els
        for a in words:
            la = xlen(a)
            if la + deg > max_len:
                continue
            pa = datum.monomial(a)
            for lg in left_gs:
                base = datum.mul(datum.group_like(lg), datum.mul(pa, r)) if lg != ident else datum.mul(pa, r)
                for b in words:
                    if la + deg + xlen(b) > max_len:
                        continue
                    row = datum.mul(base, datum.monomial(b))
                    keyed = [(*greatest_first(U), g, c) for (U, g), c in row.terms.items()]
                    for h in els:
                        ech.insert({(k, U, datum.group.mul(g, h)): c for k, U, g, c in keyed})
    return ncols - ech.rank
