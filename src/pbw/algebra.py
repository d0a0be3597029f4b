"""Presentation data for a character Hopf algebra and exact arithmetic in the
smash product k<X_L> # k[G] in canonical form (letter word followed by one
group element).

Group elements are exponent tuples over the group's factors; characters are
tuples of root-of-unity exponents (the value on each factor's generator is
zeta^k).  Monomials are (super word, group element) pairs; the group element
is always rightmost, with g * x_u = chi_u(g) x_u g baked into multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import reduce
from operator import mod, mul

from .scalars import is_height_for_order
from .words import c_set, format_word, greatest_first, is_shirshov_closed, shirshov_decompose, xlen


# ---------------------------------------------------------------------------
# abelian group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupSpec:
    torsion: tuple[int, ...] = ()
    free_rank: int = 0
    # derived: the modulus of each factor, 0 for a free one, and their number
    _moduli: tuple = dc_field(init=False, repr=False, compare=False)
    nfactors: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if min(self.torsion, default=2) < 2:
            raise ValueError("torsion orders must be >= 2")
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        object.__setattr__(self, "_moduli", tuple(self.torsion) + (0,) * self.free_rank)
        object.__setattr__(self, "nfactors", len(self._moduli))

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite():
            return None
        n = 1
        for m in self.torsion:
            n *= m
        return n

    def identity(self):
        return (0,) * self.nfactors

    def element(self, exps):
        exps = tuple(exps)
        if len(exps) != self.nfactors:
            raise ValueError("wrong number of exponents")
        # torsion exponents reduced, free ones as they are
        return tuple(map(mod, exps, self.torsion)) + exps[len(self.torsion):]

    def mul(self, a, b):
        """Product of two elements, both already in normal form."""
        return tuple((x + y) % m if m else x + y for x, y, m in zip(a, b, self._moduli))

    def power(self, a, n):
        return self.element(x * n for x in a)

    def elements(self):
        if not self.is_finite():
            raise ValueError("group is infinite")
        out = [()]
        for m in self.torsion:
            out = [g + (e,) for g in out for e in range(m)]
        return out

    def subgroup(self, gens):
        """The subgroup generated by gens, as a set; the group must be finite."""
        sub = {self.identity()}
        todo = list(sub)
        while todo:
            x = todo.pop()
            for s in gens:
                y = self.mul(x, s)
                if y not in sub:
                    sub.add(y)
                    todo.append(y)
        return sub


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class NCPoly:
    """Finite map from canonical monomials (U, g) to nonzero scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def zero():
        return NCPoly({})

    def is_zero(self):
        return not self.terms

    def copy(self):
        return NCPoly(dict(self.terms))

    def __eq__(self, other):
        return isinstance(other, NCPoly) and other.terms == self.terms

    def add_term(self, mono, coeff):
        if coeff.is_zero():
            return
        cur = self.terms.get(mono)
        if cur is None:
            self.terms[mono] = coeff
        else:
            s = cur + coeff
            if s.is_zero():
                del self.terms[mono]
            else:
                self.terms[mono] = s

    def __add__(self, other):
        out = self.copy()
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def __sub__(self, other):
        out = self.copy()
        for m, c in other.terms.items():
            out.add_term(m, -c)
        return out

    def __neg__(self):
        return NCPoly({m: -c for m, c in self.terms.items()})

    def scale(self, s):
        if s.is_zero():
            return NCPoly.zero()
        return NCPoly({m: c * s for m, c in self.terms.items()})

    def __repr__(self):
        return f"NCPoly({format_poly(self)})"


def format_monomial(mono) -> str:
    U, g = mono
    parts = [f"x{format_word(u)}" for u in U]
    for i, e in enumerate(g):
        if e:
            parts.append(f"g{i + 1}" if e == 1 else f"g{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(a) -> str:
    """Terms in decreasing rewriting order; terms with equal words keep their
    insertion order."""
    from .scalars import format_scalar

    if a.is_zero():
        return "0"
    monos = sorted(a.terms, key=lambda m: greatest_first(m[0]))
    parts = []
    for m in monos:
        c = a.terms[m]
        cs = format_scalar(c)
        ms = format_monomial(m)
        if ms == "1":
            parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
        elif cs == "1":
            parts.append(ms)
        elif cs == "-1":
            parts.append(f"-{ms}")
        else:
            parts.append(f"({cs})*{ms}" if ("+" in cs or " " in cs) else f"{cs}*{ms}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _key_mismatch(wanted, given) -> str:
    """The words of wanted missing from the dict given and its extra keys,
    at most four of each, then the count of the rest."""
    shown = 4
    missing = [w for w in wanted if w not in given]
    extra = sorted(given.keys() - set(wanted))
    parts = []
    for kind, words in (("missing", missing), ("extra", extra)):
        if words:
            more = f" and {len(words) - shown} more" if len(words) > shown else ""
            parts.append(f"{kind} {', '.join(format_word(w) for w in words[:shown])}{more}")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# the presentation datum
# ---------------------------------------------------------------------------

class InvalidDatum(ValueError):
    """A datum that validate() rejects; violations lists what it reported."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid datum: " + "; ".join(self.violations))


@dataclass(frozen=True)
class Datum:
    theta: int
    field: object
    group: GroupSpec
    g: tuple            # one group element per generator
    chi: tuple          # one character (tuple of root exponents) per generator
    L: tuple            # Shirshov-closed tuple of Lyndon words, sorted
    heights: dict       # word -> int (finite) or None (infinite)
    reds: dict          # word in C(L) -> NCPoly
    redhats: dict       # word in D(L) -> NCPoly
    # derived tables, owned by each instance: dataclasses.replace builds new ones
    _qexp: dict = dc_field(init=False, repr=False, compare=False)         # (i, j) -> exponent of q_ij
    _expansions: dict = dc_field(init=False, repr=False, compare=False)   # Lyndon word -> NCPoly
    _letter_chi: dict = dc_field(init=False, repr=False, compare=False)   # member of L -> its character
    _products: dict = dc_field(init=False, repr=False, compare=False)     # (h, g) -> h g in the group

    def __post_init__(self):
        m = self.field.unit_order
        qexp = {
            (i + 1, j + 1): sum(map(mul, self.chi[j], self.g[i])) % m
            for i in range(self.theta)
            for j in range(self.theta)
        }
        object.__setattr__(self, "_qexp", qexp)
        object.__setattr__(self, "_expansions", {})
        object.__setattr__(self, "_products", {})
        # members with a letter out of range or a character of the wrong
        # length are left to validate(); chi_word covers them on use
        n = self.group.nfactors
        letters = {i for i, chi in enumerate(self.chi, 1) if len(chi) == n}
        object.__setattr__(self, "_letter_chi", {u: self.chi_word(u) for u in self.L if letters.issuperset(u)})

    # -- bicharacter ---------------------------------------------------

    def q_exp(self, u, v) -> int:
        """Root exponent of q_{u,v} for words u, v."""
        m = self.field.unit_order
        return sum(self._qexp[(i, j)] for i in u for j in v) % m

    def q_uv(self, u, v):
        return self.field.root(self.q_exp(u, v))

    # -- degrees -------------------------------------------------------

    def chi_word(self, u):
        """Character degree of the word u (componentwise exponent sums)."""
        n = self.group.nfactors
        out = [0] * n
        for i in u:
            for f in range(n):
                out[f] += self.chi[i - 1][f]
        return tuple(out)

    def word_chi(self, U):
        """Character degree of the super word U: each distinct letter's
        entry of the per-letter table, times the letter's count."""
        out = (0,) * self.group.nfactors
        for l in set(U):
            k = U.count(l)
            chi = self._letter_chi.get(l)
            out = tuple([x + k * y for x, y in zip(out, chi if chi is not None else self.chi_word(l))])
        return out

    def group_product(self, a, b):
        """a b in the group, computed once per pair of elements for this
        datum."""
        p = self._products.get((a, b))
        if p is None:
            p = self._products[a, b] = self.group.mul(a, b)
        return p

    def g_word(self, u):
        return reduce(self.group.mul, (self.g[i - 1] for i in u), self.group.identity())

    def chi_apply_exp(self, chi, gelem) -> int:
        return sum(k * e for k, e in zip(chi, gelem)) % self.field.unit_order

    def chi_apply(self, chi, gelem):
        return self.field.root(self.chi_apply_exp(chi, gelem))

    def twist(self, c, chi, gelem):
        """c * chi(gelem) as a rotation by the root exponent, with no
        multiplication when chi(gelem) = 1."""
        k = self.chi_apply_exp(chi, gelem)
        return c.times_root(k) if k else c

    def chi_eq(self, a, b) -> bool:
        """Character equality as functions on the group (value per generator)."""
        m = self.field.unit_order
        return all((x - y) % m == 0 for x, y in zip(a, b))

    def is_trivial_char(self, chi) -> bool:
        return self.chi_eq(chi, (0,) * self.group.nfactors)

    # -- constructors ----------------------------------------------------

    def monomial(self, letters, gelem=None, coeff=None):
        g = self.group.identity() if gelem is None else self.group.element(gelem)
        c = self.field.one() if coeff is None else coeff
        p = NCPoly()
        p.add_term((tuple(tuple(l) for l in letters), g), c)
        return p

    def unit(self, coeff=None):
        return self.monomial((), None, coeff)

    def letter(self, u):
        return self.monomial((tuple(u),))

    def group_like(self, gelem, coeff=None):
        return self.monomial((), gelem, coeff)

    # -- smash-product multiplication -----------------------------------

    def mul(self, a: NCPoly, b: NCPoly) -> NCPoly:
        """(U g)(V h) = chi_V(g) (UV)(gh), term pair by term pair.  The right
        terms are twisted once per distinct left group element g, into rows
        (V, gh, chi_V(g) cb), so each term pair costs one scalar product."""
        right = [(V, h, cb, self.word_chi(V)) for (V, h), cb in b.terms.items()]
        twisted = {}
        terms = {}
        for (U, g), ca in a.terms.items():
            row = twisted.get(g)
            if row is None:
                row = twisted[g] = [(V, self.group_product(g, h), self.twist(cb, chi, g)) for V, h, cb, chi in right]
            for V, gh, cb in row:
                # NCPoly.add_term, inlined; ca * cb is a product of nonzero scalars
                mono = (U + V, gh)
                cur = terms.get(mono)
                if cur is None:
                    terms[mono] = ca * cb
                else:
                    s = cur + ca * cb
                    if s.is_zero():
                        del terms[mono]
                    else:
                        terms[mono] = s
        return NCPoly(terms)

    def q_commutator(self, a, b, q) -> NCPoly:
        """[a, b]_q = ab - q ba."""
        return self.mul(a, b) - self.mul(b, a).scale(q)

    def group_degree(self, a: NCPoly):
        """Common group degree of all monomials (letters and group part), or None."""
        deg = None
        for U, g in a.terms:
            d = self.group.mul(self.g_word([i for u in U for i in u]), g)
            if deg is None:
                deg = d
            elif deg != d:
                return None
        return deg

    def char_degree(self, a: NCPoly):
        """Common character degree of all monomials (group parts count as
        trivial degree), or None when inhomogeneous."""
        deg = None
        for U, _g in a.terms:
            d = self.word_chi(U)
            if deg is None:
                deg = d
            elif d != deg and not self.chi_eq(deg, d):
                return None
        return deg

    def graded_commutator(self, a, b) -> NCPoly:
        """[a, b] with the twist chi_b(g_a) read off the gradings."""
        if a.is_zero() or b.is_zero():
            return NCPoly.zero()
        ga = self.group_degree(a)
        if ga is None:
            raise ValueError("left argument is not group-homogeneous")
        chib = self.char_degree(b)
        if chib is None:
            raise ValueError("right argument is not character-homogeneous")
        return self.q_commutator(a, b, self.chi_apply(chib, ga))

    # -- super letters ---------------------------------------------------

    def expand_superletter(self, u) -> NCPoly:
        """The iterated q-commutator polynomial of a Lyndon word, over the
        single-letter alphabet."""
        u = tuple(u)
        cached = self._expansions.get(u)
        if cached is not None:
            return cached
        if len(u) == 1:
            out = self.letter(u)
        else:
            v, w = shirshov_decompose(u)
            a, b = self.expand_superletter(v), self.expand_superletter(w)
            out = self.q_commutator(a, b, self.q_uv(v, w))
        self._expansions[u] = out
        return out

    def expand_to_letters(self, a: NCPoly) -> NCPoly:
        """Rewrite every super-letter factor through its defining commutator
        polynomial, yielding a polynomial over single-letter words."""
        out = NCPoly.zero()
        for (U, g), c in a.terms.items():
            prod = self.group_like(g, c)
            for u in reversed(U):
                prod = self.mul(self.expand_superletter(u), prod)
            out = out + prod
        return out

    # -- shape predicates --------------------------------------------------

    def prec_L_check(self, a: NCPoly, W) -> bool:
        """True when a is a combination of equal-length super words beyond W
        (with trivial group part) plus strictly shorter words with any group
        part."""
        lw = xlen(W)
        for U, g in a.terms:
            lu = xlen(U)
            if lu > lw:
                return False
            if lu == lw:
                if g != self.group.identity():
                    return False
                if U <= W:
                    return False
        return True

    # -- validation ----------------------------------------------------------

    def d_set(self):
        return tuple(u for u in self.L if self.heights[u] is not None)

    def height_violation(self, u):
        """None when the finite height N_u is ord q_uu or, in characteristic
        p, p^k ord q_uu, as the theorem needs; otherwise validate's violation."""
        n = self.heights[u]
        if n < 1:
            return f"height of {format_word(u)} must be >= 1"
        m, p = self.field.unit_order, self.field.characteristic
        # q_uu is the root zeta^q_exp(u, u), so its order is read off the exponent
        r = m // math.gcd(m, self.q_exp(u, u))
        if is_height_for_order(n, r, p):
            return None
        if p == 0:
            return f"height {n} of {format_word(u)} differs from ord q_uu = {r}"
        return f"height {n} of {format_word(u)} is not p^k * ord q_uu (ord = {r}, p = {p})"

    def require_valid(self):
        """The datum itself, or InvalidDatum naming validate's violations."""
        violations = self.validate()
        if violations:
            raise InvalidDatum(violations)
        return self

    def validate(self) -> list[str]:
        """Empty list iff the datum satisfies every structural constraint."""
        errors = []
        if len(self.g) != self.theta or len(self.chi) != self.theta:
            errors.append("g and chi must list one entry per generator")
            return errors
        try:
            if not is_shirshov_closed(self.L, self.theta):
                errors.append("L is not Shirshov closed")
        except ValueError as e:
            errors.append(str(e))
            return errors
        if list(self.L) != sorted(self.L):
            errors.append("L must be sorted lexicographically")
        members = set(self.L)
        if len(members) != len(self.L):
            errors.append("L contains duplicate members")
        m, nf = self.field.unit_order, self.group.nfactors
        for i, g in enumerate(self.g):
            if len(g) != nf:
                errors.append(f"g_{i + 1} has the wrong number of factor exponents")
        for i, chi in enumerate(self.chi):
            if len(chi) != nf:
                errors.append(f"chi_{i + 1} has the wrong number of factor values")
                continue
            for f, k in enumerate(chi):
                if f < len(self.group.torsion) and (k * self.group.torsion[f]) % m != 0:
                    errors.append(
                        f"chi_{i + 1} value on factor {f + 1} has order not dividing {self.group.torsion[f]}"
                    )
        if any(len(v) != nf for v in (*self.g, *self.chi)):
            return errors  # the checks below read every g_i and character in full
        if self.heights.keys() != members:
            errors.append("heights must be given for exactly the members of L")
            return errors
        errors.extend(filter(None, map(self.height_violation, self.d_set())))
        cs = c_set(self.L)
        c_members = set(cs)
        if self.reds.keys() != c_members:
            errors.append(f"reds must be given for exactly C(L): {_key_mismatch(cs, self.reds)}")
        ds = self.d_set()
        d_members = set(ds)
        if self.redhats.keys() != d_members:
            errors.append(
                f"redhats must be given for exactly the finite-height members of L: {_key_mismatch(ds, self.redhats)}"
            )
        # a zero right-hand side meets every constraint
        for w, a in self.reds.items():
            if a.terms and w in c_members:
                self._check_rhs(errors, members, a, "red", w, (w,))
        for u, a in self.redhats.items():
            if a.terms and u in d_members:
                self._check_rhs(errors, members, a, "redhat", u, (u,) * self.heights[u])
        return errors

    def _check_rhs(self, errors, members, a, kind, w, bound):
        """Append the errors of the nonzero right-hand side a of kind_w, which
        must have the character degree of the super word bound and lie below it."""
        for U, _g in a.terms:
            if not members.issuperset(U):
                l = next(l for l in U if l not in members)
                errors.append(f"{kind}_{format_word(w)} uses the non-member letter {format_word(l)}")
                return
        deg = self.char_degree(a)
        if deg is None or not self.chi_eq(deg, self.word_chi(bound)):
            errors.append(f"{kind}_{format_word(w)} is not character-homogeneous of the required degree")
        if not self.prec_L_check(a, bound):
            errors.append(f"{kind}_{format_word(w)} violates the lower-terms shape against {format_word(w)}")
