"""Named example presentations: rank-one families, rank-two classics, the
A2-type lifting cases, and a B2 scaffold.

Each builder assembles a datum; `build_preset` checks the parameters
against the builder's signature, validates the datum and computes its
expected dimension.  Lifting coefficients default to 1 wherever the admissibility rules allow a
nonzero value (the coefficient must vanish when its group element is trivial
or its character constraint fails) and to 0 otherwise; passing an explicit
nonzero value where 0 is forced is an error.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import Datum, GroupSpec, NCPoly
from .criterion import bracket_table, forced_power_from_jacobi
from .rewrite import dimension
from .scalars import CycloField
from .words import format_word


@dataclass
class Preset:
    name: str
    datum: Datum
    expected_dimension: int | None
    description: str = ""


def _coeff(field, value):
    return field.from_rational(Fraction(value))


class _Builder:
    """Assembles a datum and enforces the lifting-coefficient vanishing rules."""

    def __init__(self, theta, field, group, g, chi, L, heights):
        self.d = Datum(
            theta=theta, field=field, group=group,
            g=tuple(group.element(v) for v in g),
            chi=tuple(tuple(c) for c in chi),
            L=tuple(sorted(tuple(u) for u in L)),
            heights={tuple(u): n for u, n in heights.items()},
            reds={}, redhats={},
        )
        self.reds = {}
        self.redhats = {}

    def mu_ok(self, u):
        """Nonzero power-lifting coefficient allowed for u."""
        d, u = self.d, tuple(u)
        n = d.heights[u]
        gu_n = d.group.power(d.g_word(u), n)
        chi_n = tuple(k * n for k in d.chi_word(u))
        return gu_n != d.group.identity() and d.is_trivial_char(chi_n)

    def lam_ok(self, w):
        """Nonzero commutator-lifting coefficient allowed for w."""
        d, w = self.d, tuple(w)
        return d.g_word(w) != d.group.identity() and d.is_trivial_char(d.chi_word(w))

    def coeff(self, kind, word, requested, ok):
        if requested is None:
            requested = 1 if ok else 0
        c = _coeff(self.d.field, requested)
        if c.is_zero():
            return c
        if not ok:
            raise ValueError(
                f"{kind}_{format_word(word)} must vanish: its group element is trivial "
                "or its character constraint fails"
            )
        return c

    def mu(self, u, requested):
        return self.coeff("mu", u, requested, self.mu_ok(u))

    def lam(self, w, requested):
        return self.coeff("lambda", w, requested, self.lam_ok(w))

    def one_minus_power(self, gelem, n, c):
        """c * (1 - g^n) as a polynomial."""
        d = self.d
        p = NCPoly()
        p.add_term(((), d.group.identity()), c)
        p.add_term(((), d.group.power(d.group.element(gelem), n)), -c)
        return p

    def poly(self, *terms):
        d = self.d
        p = NCPoly()
        for letters, gelem, c in terms:
            p.add_term(
                (tuple(tuple(l) for l in letters), d.group.element(gelem)),
                c if not isinstance(c, (int, Fraction, str)) else _coeff(d.field, c),
            )
        return p

    def finish(self):
        return replace(self.d, reds=self.reds, redhats=self.redhats)


# ---------------------------------------------------------------------------
# rank one
# ---------------------------------------------------------------------------

def nichols_a1(N=3):
    _need(N >= 2, "N must be >= 2")
    b = _Builder(1, CycloField(N), GroupSpec((N,)), [(1,)], [(1,)], [(1,)], {(1,): N})
    b.redhats[(1,)] = NCPoly.zero()
    return b


def lifting_a1(N=3, mu1=None):
    _need(N >= 2, "N must be >= 2")
    b = _Builder(1, CycloField(N), GroupSpec((N * N,)), [(1,)], [(1,)], [(1,)], {(1,): N})
    b.redhats[(1,)] = b.one_minus_power((1,), N, b.mu((1,), mu1))
    return b


def radford(N=3):
    return lifting_a1(N, mu1=1)


# ---------------------------------------------------------------------------
# rank two, L = {1, 2}
# ---------------------------------------------------------------------------

def quantum_plane(m=4, k=1):
    _need(m >= 1, "conductor must be >= 1")
    b = _Builder(
        2, CycloField(m), GroupSpec((), 1), [(1,), (1,)], [(0,), (k,)],
        [(1,), (2,)], {(1,): None, (2,): None},
    )
    b.reds[(1, 2)] = NCPoly.zero()
    return b


def weyl():
    b = _Builder(
        2, CycloField(1), GroupSpec(()), [(), ()], [(), ()],
        [(1,), (2,)], {(1,): None, (2,): None},
    )
    b.reds[(1, 2)] = b.poly(((), (), 1))
    return b


def nichols_a1xa1(N1=2, N2=2):
    _need(N1 >= 2 and N2 >= 2, "orders must be >= 2")
    m = N1 * N2 // math.gcd(N1, N2)
    b = _Builder(
        2, CycloField(m), GroupSpec((N1, N2)),
        [(1, 0), (0, 1)], [(m // N1, 0), (0, m // N2)],
        [(1,), (2,)], {(1,): N1, (2,): N2},
    )
    b.reds[(1, 2)] = NCPoly.zero()
    b.redhats[(1,)] = NCPoly.zero()
    b.redhats[(2,)] = NCPoly.zero()
    return b


def lifting_a1xa1(N=2, lam12=None, mu1=None, mu2=None):
    _need(N >= 2, "N must be >= 2")
    m = N * N
    b = _Builder(
        2, CycloField(m), GroupSpec((m, m)),
        [(1, 0), (0, 1)], [(N, N), (-N % m, -N % m)],
        [(1,), (2,)], {(1,): N, (2,): N},
    )
    b.reds[(1, 2)] = b.one_minus_power((1, 1), 1, b.lam((1, 2), lam12))
    b.redhats[(1,)] = b.one_minus_power((1, 0), N, b.mu((1,), mu1))
    b.redhats[(2,)] = b.one_minus_power((0, 1), N, b.mu((2,), mu2))
    return b


def book(N=3):
    _need(N > 2, "N must be > 2")
    b = _Builder(
        2, CycloField(N), GroupSpec((N,)), [(1,), (1,)], [(N - 1,), (1,)],
        [(1,), (2,)], {(1,): N, (2,): N},
    )
    b.reds[(1, 2)] = NCPoly.zero()
    b.redhats[(1,)] = NCPoly.zero()
    b.redhats[(2,)] = NCPoly.zero()
    return b


def uq_sl2(N=3):
    _need(N > 2 and N % 2 == 1, "N must be odd and > 2 so that ord(q^2) = N")
    b = _Builder(
        2, CycloField(N), GroupSpec((N,)), [(1,), (1,)], [(-2 % N,), (2,)],
        [(1,), (2,)], {(1,): N, (2,): N},
    )
    b.reds[(1, 2)] = b.one_minus_power((1,), 2, b.lam((1, 2), 1))
    b.redhats[(1,)] = NCPoly.zero()
    b.redhats[(2,)] = NCPoly.zero()
    return b


# ---------------------------------------------------------------------------
# A2-type liftings, L = {1, 12, 2}
# ---------------------------------------------------------------------------

_L3 = [(1,), (1, 2), (2,)]


def _forced_redhat_12(b: _Builder):
    """Fill redhat_12 from the Jacobi-forced closed form."""
    d0 = replace(b.d, reds=b.reds, redhats={w: NCPoly.zero() for w in b.redhats} | {(1, 2): NCPoly.zero()})
    forced = forced_power_from_jacobi(d0, bracket_table(d0), "rank2-12")
    if forced is None:
        raise ValueError("the Jacobi coefficient vanishes; no forced power relation")
    _coeffv, rhs, _w, _n = forced
    return rhs


def lifting_a2_1a(mu1=None, mu12=None, mu2=None):
    b = _Builder(
        2, CycloField(2), GroupSpec((4, 4)), [(1, 0), (0, 1)], [(1, 1), (0, 1)],
        _L3, {(1,): 2, (1, 2): 2, (2,): 2},
    )
    b.reds[(1, 1, 2)] = NCPoly.zero()
    b.reds[(1, 2, 2)] = NCPoly.zero()
    b.redhats[(1,)] = b.one_minus_power((1, 0), 2, b.mu((1,), mu1))
    b.redhats[(2,)] = b.one_minus_power((0, 1), 2, b.mu((2,), mu2))
    c1 = b.mu((1,), mu1)
    q21 = b.d.q_uv((2,), (1,))
    hat12 = b.poly((((2,), (2,)), (0, 0), c1 * q21 * _coeff(b.d.field, 4)))
    hat12 = hat12 + b.one_minus_power((1, 1), 2, b.mu((1, 2), mu12))
    b.redhats[(1, 2)] = hat12
    return b


def lifting_a2_1b(lam112=None, lam122=None, mu1=None, mu12=None, mu2=None):
    b = _Builder(
        2, CycloField(9), GroupSpec((9,)), [(1,), (1,)], [(3,), (3,)],
        _L3, {(1,): 3, (1, 2): 3, (2,): 3},
    )
    f = b.d.field
    q = f.root(3)
    l112 = b.lam((1, 1, 2), lam112)
    l122 = b.lam((1, 2, 2), lam122)
    c1 = b.mu((1,), mu1)
    b.reds[(1, 1, 2)] = b.one_minus_power((3,), 1, l112)
    b.reds[(1, 2, 2)] = b.one_minus_power((3,), 1, l122)
    b.redhats[(1,)] = b.one_minus_power((1,), 3, c1)
    b.redhats[(2,)] = b.one_minus_power((1,), 3, b.mu((2,), mu2))
    one = f.one()
    lead = -(one - q) * q * l112
    q12_2 = b.d.q_uv((1, 2), (2,))
    hat12 = b.poly(
        (((1, 2), (2,)), (0,), lead),
        (((2,), (1, 2)), (0,), -lead * q12_2),
        (((2,), (2,), (2,)), (0,), c1 * (one - q) ** 3),
    )
    hat12 = hat12 + b.one_minus_power((2,), 3, b.mu((1, 2), mu12))
    b.redhats[(1, 2)] = hat12
    return b


def lifting_a2_1c(N=4, mu1=None, mu12=None, mu2=None):
    _need(N == 4, "this case is built at ord q = 4")
    b = _Builder(
        2, CycloField(4), GroupSpec((8, 8)), [(1, 0), (0, 1)], [(1, 0), (3, 1)],
        _L3, {(1,): 4, (1, 2): 4, (2,): 4},
    )
    f = b.d.field
    b.reds[(1, 1, 2)] = NCPoly.zero()
    b.reds[(1, 2, 2)] = NCPoly.zero()
    c1 = b.mu((1,), mu1)
    b.redhats[(1,)] = b.one_minus_power((1, 0), 4, c1)
    b.redhats[(2,)] = b.one_minus_power((0, 1), 4, b.mu((2,), mu2))
    q11, q21 = f.root(1), b.d.q_uv((2,), (1,))
    lead = c1 * (q11 - f.one()) ** 4 * q21 ** 6
    hat12 = b.poly((((2,),) * 4, (0, 0), lead))
    hat12 = hat12 + b.one_minus_power((1, 1), 4, b.mu((1, 2), mu12))
    b.redhats[(1, 2)] = hat12
    return b


def lifting_a2_2a(mu1=None, mu2=None):
    b = _Builder(
        2, CycloField(6), GroupSpec((9, 2)), [(1, 0), (2, 1)], [(2, 0), (0, 3)],
        _L3, {(1,): 3, (1, 2): 2, (2,): 2},
    )
    c2 = b.mu((2,), mu2)
    q21 = b.d.q_uv((2,), (1,))
    b.reds[(1, 1, 2)] = NCPoly.zero()
    b.reds[(1, 2, 2)] = b.poly((((1,),), (4, 0), c2 * (q21 * q21 - b.d.field.one())))
    b.redhats[(1,)] = b.one_minus_power((1, 0), 3, b.mu((1,), mu1))
    b.redhats[(2,)] = b.one_minus_power((2, 1), 2, c2)
    b.redhats[(1, 2)] = _forced_redhat_12(b)
    return b


def lifting_a2_2b(lam112=None, mu1=None, mu2=None):
    b = _Builder(
        2, CycloField(4), GroupSpec((8,)), [(1,), (1,)], [(1,), (2,)],
        _L3, {(1,): 4, (1, 2): 2, (2,): 2},
    )
    c2 = b.mu((2,), mu2)
    q21 = b.d.q_uv((2,), (1,))
    b.reds[(1, 1, 2)] = b.one_minus_power((1,), 3, b.lam((1, 1, 2), lam112))
    b.reds[(1, 2, 2)] = b.poly((((1,),), (2,), c2 * (q21 * q21 - b.d.field.one())))
    b.redhats[(1,)] = b.one_minus_power((1,), 4, b.mu((1,), mu1))
    b.redhats[(2,)] = b.one_minus_power((1,), 2, c2)
    b.redhats[(1, 2)] = _forced_redhat_12(b)
    return b


def lifting_a2_3a(mu1=None, mu2=None):
    b = _Builder(
        2, CycloField(6), GroupSpec((9, 2)), [(2, 1), (1, 0)], [(0, 3), (2, 0)],
        _L3, {(1,): 2, (1, 2): 2, (2,): 3},
    )
    c1 = b.mu((1,), mu1)
    q12 = b.d.q_uv((1,), (2,))
    b.reds[(1, 1, 2)] = b.poly((((2,),), (0, 0), c1 * (b.d.field.one() - q12 * q12)))
    b.reds[(1, 2, 2)] = NCPoly.zero()
    b.redhats[(1,)] = b.one_minus_power((2, 1), 2, c1)
    b.redhats[(2,)] = b.one_minus_power((1, 0), 3, b.mu((2,), mu2))
    b.redhats[(1, 2)] = _forced_redhat_12(b)
    return b


def lifting_a2_3b(lam122=None, mu1=None, mu2=None):
    b = _Builder(
        2, CycloField(4), GroupSpec((8,)), [(1,), (1,)], [(2,), (1,)],
        _L3, {(1,): 2, (1, 2): 2, (2,): 4},
    )
    c1 = b.mu((1,), mu1)
    q12 = b.d.q_uv((1,), (2,))
    b.reds[(1, 1, 2)] = b.poly((((2,),), (0,), c1 * (b.d.field.one() - q12 * q12)))
    b.reds[(1, 2, 2)] = b.one_minus_power((1,), 3, b.lam((1, 2, 2), lam122))
    b.redhats[(1,)] = b.one_minus_power((1,), 2, c1)
    b.redhats[(2,)] = b.one_minus_power((1,), 4, b.mu((2,), mu2))
    b.redhats[(1, 2)] = _forced_redhat_12(b)
    return b


def lifting_a2_4a(mu1=None, mu12=None):
    b = _Builder(
        2, CycloField(6), GroupSpec((12,)), [(1,), (9,)], [(3,), (5,)],
        _L3, {(1,): 2, (1, 2): 3, (2,): 2},
    )
    c1 = b.mu((1,), mu1)
    q12 = b.d.q_uv((1,), (2,))
    b.reds[(1, 1, 2)] = b.poly((((2,),), (0,), c1 * (b.d.field.one() - q12 * q12)))
    b.reds[(1, 2, 2)] = NCPoly.zero()
    b.redhats[(1,)] = b.one_minus_power((1,), 2, c1)
    b.redhats[(2,)] = NCPoly.zero()
    b.redhats[(1, 2)] = b.one_minus_power((10,), 3, b.mu((1, 2), mu12))
    return b


def lifting_a2_4b(mu2=None, mu12=None):
    b = _Builder(
        2, CycloField(4), GroupSpec((8,)), [(2,), (1,)], [(1,), (2,)],
        _L3, {(1,): 2, (1, 2): 4, (2,): 2},
    )
    c2 = b.mu((2,), mu2)
    q21 = b.d.q_uv((2,), (1,))
    b.reds[(1, 1, 2)] = NCPoly.zero()
    b.reds[(1, 2, 2)] = b.poly((((1,),), (2,), c2 * (q21 * q21 - b.d.field.one())))
    b.redhats[(1,)] = NCPoly.zero()
    b.redhats[(2,)] = b.one_minus_power((1,), 2, c2)
    b.redhats[(1, 2)] = b.one_minus_power((3,), 4, b.mu((1, 2), mu12))
    return b


# ---------------------------------------------------------------------------
# B2 scaffold, L = {1, 112, 12, 2}
# ---------------------------------------------------------------------------

def b2_scaffold(N=5):
    _need(N == 5, "the scaffold is built at ord q = 5")
    b = _Builder(
        2, CycloField(5), GroupSpec((5,)), [(1,), (1,)], [(1,), (2,)],
        [(1,), (1, 1, 2), (1, 2), (2,)],
        {(1,): 5, (1, 1, 2): 5, (1, 2): 5, (2,): 5},
    )
    for w in [(1, 1, 1, 2), (1, 1, 2, 1, 2), (1, 2, 2)]:
        b.reds[w] = NCPoly.zero()
    for u in [(1,), (1, 1, 2), (1, 2), (2,)]:
        b.redhats[u] = NCPoly.zero()
    return b


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    "nichols_a1": (nichols_a1, "Nilpotent rank-one algebra x^N = 0"),
    "taft": (nichols_a1, "Taft algebra over Z/N"),
    "radford": (radford, "Radford algebra over Z/N^2 with x^N = 1 - g^N"),
    "lifting_a1": (lifting_a1, "Rank-one lifting with x^N = mu (1 - g^N)"),
    "quantum_plane": (quantum_plane, "x1 x2 = q x2 x1, no power relations"),
    "weyl": (weyl, "x1 x2 - x2 x1 = 1"),
    "nichols_a1xa1": (nichols_a1xa1, "Commuting-type rank two, zero liftings"),
    "lifting_a1xa1": (lifting_a1xa1, "Rank-two lifting with all three coefficients"),
    "book": (book, "Book algebra h(1, q)"),
    "uq_sl2": (uq_sl2, "Frobenius-Lusztig kernel u_q(sl2)"),
    "lifting_a2_1a": (lifting_a2_1a, "A2 lifting, q11 = q22 = -1"),
    "lifting_a2_1b": (lifting_a2_1b, "A2 lifting, ord q11 = 3"),
    "lifting_a2_1c": (lifting_a2_1c, "A2 lifting, ord q11 = 4"),
    "lifting_a2_2a": (lifting_a2_2a, "Mixed lifting, ord q11 = 3, q22 = -1"),
    "lifting_a2_2b": (lifting_a2_2b, "Mixed lifting, ord q11 = 4, q22 = -1"),
    "lifting_a2_3a": (lifting_a2_3a, "Mirror of 2a"),
    "lifting_a2_3b": (lifting_a2_3b, "Mirror of 2b"),
    "lifting_a2_4a": (lifting_a2_4a, "q11 = q22 = -1, ord q12 q21 = 3"),
    "lifting_a2_4b": (lifting_a2_4b, "q11 = q22 = -1, ord q12 q21 = 4, q12 = 1"),
    "b2_scaffold": (b2_scaffold, "B2-type scaffold at ord q = 5, zero liftings"),
}

PRESET_NAMES = tuple(sorted(_BUILDERS))


def build_preset(name, /, **params) -> Preset:
    """The named preset.  The parameters are those of its builder: one whose
    default is an integer must be an integer, and any other name is refused."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    builder, desc = _BUILDERS[name]
    taken = inspect.signature(builder).parameters
    for key, p in taken.items():
        _need(not isinstance(p.default, int) or isinstance(params.get(key, 0), int),
              f"parameter {key} must be an integer")
    unknown = sorted(params.keys() - taken.keys())
    _need(not unknown, f"unknown parameters: {unknown}")
    datum = builder(**params).finish().require_valid()
    return Preset(name, datum, dimension(datum), desc)


def _need(cond, msg):
    if not cond:
        raise ValueError(msg)
