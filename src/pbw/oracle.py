"""Independent linear-algebra checks: exact sparse row reduction, membership
in a spanned subspace, and the quotient-dimension estimate obtained by
Gaussian elimination on the degree-truncated span of the defining ideal.

The quotient estimate works over the original letters only (super letters
are expanded through their commutator polynomials), so it shares nothing
with the rewriting engine.  It eliminates one coset block of the group,
that of the subgroup generated by the relations' group parts, and scales
that block's rank by the index; for Nichols-type data, whose relations have
no group part, this divides the work by |G|.  Within the block it builds
the truncated ideal one total degree at a time, extending by one letter
only the rows that enlarged the span, over integer column keys that sort
as poly_row's labels do (ColumnKeys).  Each degree's rows are eliminated
least leading monomial first, as in F4.  It refuses data past a budget of
MAX_ORACLE_COLUMNS columns or MAX_ORACLE_ROWS placements before building
any row.

Echelon keeps each pivot as its tail over a lead of one, not negated, and a
reduction step subtracts a multiple of it.  In the F4 order rows reduce
little, so a sign per stored entry cost more than the signs it saved in
the reduction steps (see Echelon).
"""

from __future__ import annotations

from .algebra import NCPoly
from .words import greatest_first, xlen


class Echelon:
    """Incremental row echelon over an exact field; rows are sparse dicts
    keyed by orderable column labels, and the least label leads a row.

    pivots maps each pivot's lead column to the rest of its row, normalized
    so that the lead is one and otherwise kept as computed: a list of
    (column, value) pairs, the tail.  A reduction step pops the row's lead c
    and subtracts c times the tail from the row, or the tail itself when c
    is one, so the lead costs no scalar work and each pivot entry at most
    one product and either one difference or, where it fills an empty
    column, one negation.  insert and contains reduce one copy of the
    caller's row and leave the row itself unchanged.

    Tails were once stored negated, ready to add, so that a step filled a
    column with no sign.  Since quotient_rank eliminates least leading
    monomial first, rows reduce little: one sweep of the seed-1 oracle-rank
    benchmark inserts 1,643 rows and negated 1,559 pivot entries to store
    them, but runs only 893 reduction steps, which fill 673 empty columns
    (315 of them in the 384 steps by one).  Negating c once per step not by
    one instead of each filled column would take 824 signs, with no
    measurable difference in time."""

    def __init__(self):
        self.pivots = {}

    def _reduce(self, row):
        """Reduce row in place (insert and contains pass their own copy);
        the lead of what is left, or None when it reduced to zero."""
        pivots = self.pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                return lead
            c = row.pop(lead)
            unit = c.is_one()
            for k, v in piv:
                if not unit:
                    v = c * v
                cur = row.get(k)
                if cur is None:
                    row[k] = -v
                else:
                    s = cur - v
                    if s.is_zero():
                        del row[k]
                    else:
                        row[k] = s
        return None

    def insert(self, row) -> bool:
        """Add a row; True when it enlarged the span."""
        row = dict(row)
        lead = self._reduce(row)
        if lead is None:
            return False
        c = row.pop(lead)
        if c.is_one():
            self.pivots[lead] = list(row.items())
        else:
            inv = c.inverse()
            self.pivots[lead] = [(k, v * inv) for k, v in row.items()]
        return True

    def contains(self, row) -> bool:
        return self._reduce(dict(row)) is None

    @property
    def rank(self):
        return len(self.pivots)


def poly_row(a: NCPoly, labels=None):
    """Row with the labels (*greatest_first(U), g): the least label is the
    greatest monomial in the rewriting order.  labels, a dict from words to
    greatest_first(U), lets calls that share words compute each key once."""
    if labels is None:
        labels = {}
    row = {}
    for (U, g), c in a.terms.items():
        key = labels.get(U)
        if key is None:
            key = labels[U] = greatest_first(U)
        row[(*key, g)] = c
    return row


def span_contains(elements, target: NCPoly) -> bool:
    """Exact membership of target in the linear span of the given polynomials.

    Only the elements linked to the target are eliminated.  A union-find over
    monomials joins the monomials of each element; an element whose component
    holds no monomial of the target shares no monomial with any element that
    does, so it enters a combination equal to the target with coefficient 0.
    Monomials are numbered on first sight: each occurrence is hashed once."""
    number, parent = {}, []

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for e in elements:
        root = None
        for m in e.terms:
            i = number.setdefault(m, len(parent))
            if i == len(parent):
                parent.append(i)
            r = find(i)
            if root is None:
                root = r
            elif r != root:
                parent[r] = root
    linked = {find(number[m]) for m in target.terms if m in number}
    ech = Echelon()
    labels = {}  # each word is labelled once per call
    for e in elements:
        if e.terms and find(number[next(iter(e.terms))]) in linked:
            ech.insert(poly_row(e, labels))
    return ech.contains(poly_row(target, labels))


# ---------------------------------------------------------------------------
# quotient dimension estimate
# ---------------------------------------------------------------------------

# Column budget of quotient_rank (words up to the truncation length times
# |G|).  At margin 0 every preset has at most 5,100 columns (nichols_a1xa1
# N1=4, N2=5) except b2_scaffold, with 2.7e9, and lifting_a2_1c, with
# 524,224; lifting_a2_1b, with 4,599, takes 0.020-0.022 s and lifting_a2_4b
# 0.007-0.012 s (Python 3.11, shared 2-core x86 host, best of 7).
MAX_ORACLE_COLUMNS = 100_000

# Row budget of quotient_rank, counted before any row is built: the
# placements lg*a*r*b*h within the block, an upper bound on the rows built,
# since only the rows that enlarged the span are extended.  Every call in
# the test suites has at most 4,335 placements and lifting_a2_4b has 8,724
# (2,212 rows built); tampered uq_sl2 N=5 (red_12 = 1 - g) at margin 2 has
# 23,695 within the column budget and is refused.
MAX_ORACLE_ROWS = 10_000


def ideal_generators_expanded(datum):
    """The defining elements over the original letters: commutator relations
    [w] - red_w for w in C(L) and power relations [u]^N - redhat_u."""
    gens = []
    for w, red in sorted(datum.reds.items()):
        lhs = datum.expand_superletter(w)
        gens.append(lhs - datum.expand_to_letters(red))
    for u in sorted(datum.redhats.keys()):
        n = datum.heights[u]
        if len(u) == 1:
            lhs = datum.monomial((u,) * n)  # x_u^N, with no product to build
        else:
            base = datum.expand_superletter(u)
            lhs = base
            for _ in range(n - 1):
                lhs = datum.mul(lhs, base)
        gens.append(lhs - datum.expand_to_letters(datum.redhats[u]))
    return gens


class ColumnKeys:
    """Integer column keys of quotient_rank, ordered as the labels
    (*greatest_first(U), g) for words U over the original letters of length
    at most max_len and the group elements in sorted order:

        key(U, g) = ((max_len - len U) * theta^max_len + code(U)) * |G| + index(g)

    where code(U) reads the letters x - 1 of U as base-theta digits.  Words
    of one length share a block of theta^max_len * |G| keys, longer words
    first, and within a block code and index sort as U and g do.  Every key
    is below (max_len + 1) * theta^max_len * |G|, so under the column budget
    it is below (max_len + 1) * MAX_ORACLE_COLUMNS."""

    def __init__(self, theta, order, max_len):
        self.theta, self.order, self.max_len = theta, order, max_len
        self.top = theta**max_len
        self.block = self.top * order
        # left[x - 1][max_len - len U]: the key shift of U g -> xU g, which
        # shortens the length gap by one and adds (x - 1) * theta^len U
        self.left = [
            [((x - 1) * theta ** (max_len - gap) - self.top) * order for gap in range(max_len + 1)]
            for x in range(1, theta + 1)
        ]

    def key(self, U, index):
        code = 0
        for (x,) in U:
            code = code * self.theta + x - 1
        return ((self.max_len - len(U)) * self.top + code) * self.order + index

    def extend_left(self, row, x):
        """x * row, for a row of words shorter than max_len."""
        shift, block = self.left[x - 1], self.block
        return {k + shift[k // block]: c for k, c in row.items()}

    def extend_right(self, row, x, twist):
        """row * x, for a row of words shorter than max_len: U g -> Ux g
        multiplies code by theta and adds x - 1, and the coefficient is
        multiplied by twist[index(g)], or kept when that is None."""
        top, theta, order = self.top, self.theta, self.order
        out = {}
        for k, c in row.items():
            q, i = divmod(k, order)
            gap, code = divmod(q, top)
            t = twist[i]
            out[((gap - 1) * top + code * theta + x - 1) * order + i] = c if t is None else c * t
        return out


def quotient_rank(datum, margin=0) -> int:
    """Dimension of the span of words*group modulo the degree-truncated ideal
    span; for a confluent presentation this equals the true dimension once
    the truncation length reaches the longest basis monomial.

    Requires a finite group.  The truncation length is the total nilpotency
    length plus the margin.  Raises ValueError when there would be more than
    MAX_ORACLE_COLUMNS columns (words up to that length times |G|) or more
    than MAX_ORACLE_ROWS placements lg*a*r*b*h.

    Only one coset block is eliminated.  Let H be the subgroup generated by
    the group parts of the ideal generators.  The row lg*a*r*b*h has its
    group parts in the coset lg*h*H, and shifting every column's group part
    by one element maps the row set onto itself, so all [G:H] blocks have
    the same rank and the rank is [G:H] times that of the block H.  When no
    relation has a group part, as for bosonized Nichols algebras, H is
    trivial and this saves a factor of |G|.

    The block is built one total degree D = |a| + deg r + |b| at a time.
    Level deg r starts with the seeds lg*r*h.  Up to a scalar, every row of
    level D + 1 is x*p or p*x for a letter x and a row p of level D, and p
    lies in the span of the rows of level at most D that enlarged it, so
    only those are extended.  A row x*q of level D made by a left extension
    is not extended on the right: (x*q)*y = x*(q*y), where q*y lies in the
    span of the growing rows of levels up to D, and each of those is
    extended on the left.  So each a*r*b is built at most once, as letters
    added on the right and then on the left.

    The set-up runs over H as well.  Every row's group parts lie in H, so
    the twists chi_x(h) are computed for h in H only, and a column outside
    H raises instead of reading as untwisted.  Each seed term's key is
    computed once, as key(U, 0) + index(g*h), with g*h from the datum's
    memoised group_product.

    Each level's rows are inserted least leading monomial first (the
    greatest key min(row) first), and among equal leads fewer terms first:
    the order in which Faugere's F4 (J. Pure Appl. Algebra 139, 1999)
    eliminates its Macaulay matrices.  The pivots made first have the least
    leads, so their tails hold only lesser monomials, and the rows reduced
    against them fill in less; on lifting_a2_2a the scalar products fell
    from 1,540 to 934.  The rank does not depend on the order.  In any
    order, a row that does not enlarge the span lies in the span of the
    rows inserted before it, all of them rows of levels at most D that
    enlarged it, and only those are extended; so the argument above holds
    for every order, and each level's span is the same.
    """
    group = datum.group
    if not group.is_finite():
        raise ValueError("quotient rank needs a finite group")
    max_len = margin
    for u in datum.L:
        n = datum.heights[u]
        if n is None:
            raise ValueError("quotient rank needs finite heights")
        max_len += (n - 1) * len(u)

    order = group.order()
    # ends[k]: the number of words of length <= k
    ends = [1]
    for _ in range(max_len):
        if ends[-1] * order > MAX_ORACLE_COLUMNS:
            break
        ends.append(ends[-1] * datum.theta + 1)
    ncols = ends[-1] * order
    if ncols > MAX_ORACLE_COLUMNS:
        raise ValueError(
            f"quotient rank needs more than {MAX_ORACLE_COLUMNS} columns "
            f"(words of length <= {max_len} over {datum.theta} letters, "
            f"times {order} group elements)"
        )

    gens = [r for r in ideal_generators_expanded(datum) if not r.is_zero()]
    sub = group.subgroup({g for r in gens for _, g in r.terms})

    homogeneous = all(datum.char_degree(r) is not None for r in gens)
    ident = group.identity()
    left_gs = [ident] if homogeneous else group.elements()
    degs = [max(xlen(U) for U, _ in r.terms) for r in gens]
    # words of length k: theta^k, each with ends[max_len - deg - k] right words
    nrows = len(left_gs) * len(sub) * sum(
        datum.theta ** k * ends[max_len - deg - k]
        for deg in degs if deg <= max_len
        for k in range(max_len - deg + 1)
    )
    if nrows > MAX_ORACLE_ROWS:
        raise ValueError(
            f"quotient rank needs more than {MAX_ORACLE_ROWS} rows "
            f"({nrows} at truncation length {max_len})"
        )
    # the h with lg*h in H, for each lg; elements() lists G in sorted order
    index = {g: i for i, g in enumerate(group.elements())}
    right_hs = {lg: sorted(group.mul(group.power(lg, -1), k) for k in sub) for lg in left_gs}
    # rows of total degree D, keyed by ColumnKeys, each with a flag: whether
    # it may be extended on the right.  Rows grow by concatenation:
    # x*(V g) = (xV) g and (V g)*x = chi_x(g) (Vx) g.
    cols = ColumnKeys(datum.theta, order, max_len)
    product = datum.group_product
    levels = [[] for _ in range(max_len + 1)]
    for r, deg in zip(gens, degs):
        if deg > max_len:
            continue
        for lg in left_gs:
            base = datum.mul(datum.group_like(lg), r) if lg != ident else r
            # key(U, index(g h)) = key(U, 0) + index(g h)
            terms = [(cols.key(U, 0), g, c) for (U, g), c in base.terms.items()]
            for h in right_hs[lg]:
                levels[deg].append(({k + index[product(g, h)]: c for k, g, c in terms}, True))
    # twists[x - 1][index(g)] for g in H: chi_x(g), or None when it is 1.
    # Every row's group parts lie in H, and a key outside H raises KeyError.
    field = datum.field
    twists = []
    for chi in datum.chi:
        exps = {index[g]: datum.chi_apply_exp(chi, g) for g in sub}
        twists.append({i: field.root(k) if k else None for i, k in exps.items()})
    letters = range(1, datum.theta + 1)
    ech = Echelon()
    for D in range(max_len + 1):
        level, levels[D] = levels[D], None
        # least leading monomial (greatest lead key) first, then fewer terms
        level.sort(key=lambda item: (-min(item[0]), len(item[0])))
        for row, right in level:
            if not ech.insert(row) or D == max_len:
                continue
            # only rows that grew the span are extended, and only seeds and
            # right extensions on the right
            for x in letters:
                levels[D + 1].append((cols.extend_left(row, x), False))
                if right:
                    levels[D + 1].append((cols.extend_right(row, x, twists[x - 1]), True))
    return ncols - order // len(sub) * ech.rank
