"""Exact scalar arithmetic: cyclotomic fields Q(zeta_m), prime fields F_p,
roots of unity, and the q-number / Gaussian-binomial calculus."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense integer/rational polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(num, den):
    # long division; it stays in Z[x] when den is monic over Z
    num = list(num)
    lead = den[-1]
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            if lead != 1:
                c /= lead
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return _trim(q), _trim(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by dividing x^m - 1 by the product of the cyclotomic
    polynomials of the proper divisors of m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    q, r = _poly_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(q)


def euler_phi(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class CycloField:
    """The cyclotomic field Q(zeta_m); elements are residues mod Phi_m with
    exact rational coefficients."""

    characteristic = 0

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("conductor must be >= 1")
        self.m = m
        self.modulus = cyclotomic_poly(m)
        self.degree = len(self.modulus) - 1
        self._root_cache = {}
        self._root_index = None
        # powers[j] = x^j mod Phi_m for j = 0..m-1, the sparse row of its
        # nonzero (index, integer coefficient) pairs: x^j itself below the
        # degree d, then one shift per power, folding the top coefficient
        # back through x^d = x^d - Phi_m
        d = self.degree
        rows = [((j, 1),) for j in range(d)]
        vec = [-c for c in self.modulus[:d]]
        xd = [(i, n) for i, n in enumerate(vec) if n]
        for _ in range(d, m):
            rows.append(tuple([(i, n) for i, n in enumerate(vec) if n]))
            top = vec.pop()
            vec.insert(0, 0)
            if top:
                for i, n in xd:
                    vec[i] += top * n
        self._powers = tuple(rows)

    # unit_order: order of the canonical distinguished root zeta_m
    @property
    def unit_order(self):
        return self.m

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.m == self.m

    def __hash__(self):
        return hash(("cyclo", self.m))

    def __repr__(self):
        return f"CycloField({self.m})"

    def element(self, coeffs) -> Cyclo:
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [int(c * den) for c in coeffs]
        # fold x^i for i >= degree through its power row
        d, m, rows = self.degree, self.m, self._powers
        out = num[:d] + [0] * (d - len(num))
        for i in range(d, len(num)):
            c = num[i]
            if c:
                for j, n in rows[i % m]:
                    out[j] += c * n
        return _make_cyclo(self, out, den)

    def zero(self) -> Cyclo:
        return Cyclo(self, (0,) * self.degree, 1)

    def one(self) -> Cyclo:
        return Cyclo(self, (1,) + (0,) * (self.degree - 1), 1, 0)

    def from_rational(self, r) -> Cyclo:
        r = Fraction(r)
        return self.from_ratio(r.numerator, r.denominator)

    def from_ratio(self, n: int, d: int) -> Cyclo:
        """n / d for integers n and d > 0."""
        g = math.gcd(n, d)
        return Cyclo(self, (n // g,) + (0,) * (self.degree - 1), d // g)

    def root(self, k: int) -> Cyclo:
        """zeta_m^k as a field element, marked with its exponent k."""
        k %= self.m
        x = self._root_cache.get(k)
        if x is None:
            num = [0] * self.degree
            for i, n in self._powers[k]:
                num[i] = n
            x = self._root_cache[k] = Cyclo(self, tuple(num), 1, k)
        return x

    def power_rows(self):
        """The m powers x^j mod Phi_m, j = 0..m-1, each as the sparse row of
        its nonzero (index, integer coefficient) pairs: the field's one
        reduction table, built with the field."""
        return self._powers

    def root_multiple(self, x: Cyclo):
        """(s, k) with x = s * zeta^k for a nonzero rational s, or None when x
        is no such multiple.  The lookup table holds the integer vectors of
        the m roots, each scaled so that its first nonzero entry is
        positive; it is built once, on first use, from the power rows."""
        if self._root_index is None:
            index = {}
            for k, row in enumerate(self._powers):
                sign = 1 if row[0][1] > 0 else -1
                vec = [0] * self.degree
                for i, n in row:
                    vec[i] = sign * n
                index.setdefault(tuple(vec), (k, sign))
            self._root_index = index
        g = first = 0
        for n in x.num:
            if n:
                first = first or n
                g = math.gcd(g, n)
        if not g:
            return None
        if first < 0:
            g = -g
        hit = self._root_index.get(tuple(n // g for n in x.num))
        if hit is None:
            return None
        k, sign = hit
        return Fraction(sign * g, x.den), k

    def order(self, x: Cyclo):
        """Multiplicative order of x, or None when infinite.  Every root of
        unity in Q(zeta_m) is +-zeta^k, so x has finite order iff it is
        s * zeta^k with s = +-1; -zeta^k is zeta^(k + m/2) when m is even,
        and has twice the (odd) order of zeta^k when m is odd."""
        if x.is_zero():
            raise ZeroDivisionError("not a unit")
        hit = self.root_multiple(x)
        if hit is None:
            return None
        s, k = hit
        if abs(s) != 1:
            return None
        if s < 0:
            if self.m % 2:
                return 2 * (self.m // math.gcd(self.m, k))
            k += self.m // 2
        return self.m // math.gcd(self.m, k)


def _make_cyclo(field, num, den):
    """Normalize an integer vector with a positive common denominator."""
    if den != 1:
        g = 0
        for n in num:
            if n:
                g = math.gcd(g, n)
                if g == 1:
                    break
        if g == 0:
            return Cyclo(field, (0,) * field.degree, 1)
        g = math.gcd(g, den)
        if g > 1:
            den //= g
            num = [n // g for n in num]
    return Cyclo(field, tuple(num), den)


class Cyclo:
    """Element of a CycloField: integer coefficient vector over a positive
    common denominator, fully reduced, so equality is componentwise.

    root_exp is k when the element is known to be exactly zeta^k, and None
    otherwise.  Only exact operations set it: `CycloField.root` and `one`,
    a rotation of a marked element, the product of two marked elements, the
    negation of a marked element when m is even, and the inverse of
    +-zeta^k when that is a power of zeta.  Equality and hashing ignore it."""

    __slots__ = ("field", "num", "den", "root_exp")

    def __init__(self, field, num, den, root_exp=None):
        self.field = field
        self.num = num
        self.den = den
        self.root_exp = root_exp

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        k = self.root_exp
        if k is not None:
            return k == 0  # root() and one() keep k in 0..m-1
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self):
        return not any(self.num[1:])

    def __eq__(self, other):
        return (
            isinstance(other, Cyclo)
            and other.field == self.field
            and other.den == self.den
            and other.num == self.num
        )

    def __hash__(self):
        return hash((self.field.m, self.num, self.den))

    def _check(self, other):
        if not isinstance(other, Cyclo) or (
            other.field is not self.field and other.field != self.field
        ):
            raise TypeError("scalars from different fields")

    def __add__(self, other):
        if type(other) is not Cyclo or other.field is not self.field:
            self._check(other)
        da, db = self.den, other.den
        if da == db:
            num = [a + b for a, b in zip(self.num, other.num)]
            if da == 1:
                return Cyclo(self.field, tuple(num), 1)
            return _make_cyclo(self.field, num, da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return _make_cyclo(
            self.field, [a * ma + b * mb for a, b in zip(self.num, other.num)], da * ma
        )

    def __sub__(self, other):
        if type(other) is not Cyclo or other.field is not self.field:
            self._check(other)
        da, db = self.den, other.den
        if da == db:
            num = [a - b for a, b in zip(self.num, other.num)]
            if da == 1:
                return Cyclo(self.field, tuple(num), 1)
            return _make_cyclo(self.field, num, da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return _make_cyclo(
            self.field, [a * ma - b * mb for a, b in zip(self.num, other.num)], da * ma
        )

    def __neg__(self):
        k, field = self.root_exp, self.field
        if k is not None and not field.m % 2:
            return field.root(k + field.m // 2)  # -zeta^k = zeta^(k + m/2)
        return Cyclo(field, tuple([-a for a in self.num]), self.den)

    def times_root(self, k: int):
        """self * zeta^k as a rotation: x^i goes to the power row of x^(i+k),
        so the cost is the entries of self times the row lengths, not a
        degree x degree product.  zeta^k is a unit of Z[zeta], so the integer
        vector keeps its content and the denominator stays reduced."""
        field = self.field
        if self.root_exp is not None:
            return field.root(self.root_exp + k)
        m = field.m
        k %= m
        if not k:
            return self
        rows = field._powers
        out = [0] * field.degree
        for i, n in enumerate(self.num):
            if n:
                for j, c in rows[(i + k) % m]:
                    out[j] += n * c
        return Cyclo(field, tuple(out), self.den)

    def __mul__(self, other):
        if type(other) is not Cyclo or other.field is not self.field:
            self._check(other)
        if other.root_exp is not None:
            if self.root_exp is not None:
                return self.field.root(self.root_exp + other.root_exp)
            return self.times_root(other.root_exp)
        if self.root_exp is not None:
            return other.times_root(self.root_exp)
        a, b = self.num, other.num
        den = self.den * other.den
        # fast paths: rational factors are by far the most common case
        if not any(a[1:]):
            r = a[0]
            if not r:
                return self.field.zero()
            num = [r * c for c in b]
            return _make_cyclo(self.field, num, den) if den != 1 else Cyclo(self.field, tuple(num), 1)
        if not any(b[1:]):
            r = b[0]
            if not r:
                return self.field.zero()
            num = [r * c for c in a]
            return _make_cyclo(self.field, num, den) if den != 1 else Cyclo(self.field, tuple(num), 1)
        d = self.field.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        # fold x^j for j >= d through its power row
        rows, m = self.field._powers, self.field.m
        low = prod[:d]
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                for k, n in rows[j % m]:
                    low[k] += c * n
        if den == 1:
            return Cyclo(self.field, tuple(low), 1)
        return _make_cyclo(self.field, low, den)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Inverse of n/d as d/n and of s * zeta^k as s^-1 * zeta^-k, with no
        division; of any other element via the extended Euclidean algorithm
        against Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        if self.root_exp is not None:
            return field.root(-self.root_exp)
        if self.is_rational():
            n = self.num[0]
            d = -self.den if n < 0 else self.den
            return Cyclo(field, (d,) + (0,) * (field.degree - 1), abs(n))
        hit = field.root_multiple(self)
        if hit is not None:
            s, k = hit
            if abs(s) == 1:
                return field.root(-k) if s > 0 else -field.root(-k)
            # root(-k) has coprime integer entries (it is a unit of Z[zeta]),
            # so scaling it by the reduced fraction 1/s stays reduced
            d = -s.denominator if s < 0 else s.denominator
            return Cyclo(field, tuple(d * n for n in field.root(-k).num), abs(s.numerator))
        # work in Q[x]: gcd(self, Phi_m) = 1 since Phi_m is irreducible
        r0 = [Fraction(c) for c in self.field.modulus]
        r1 = _trim(list(self.coeffs))
        s0, s1 = [], [_ONE]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 = gcd (a nonzero constant), s0 * self = r0 (mod Phi_m)
        assert len(r0) == 1
        inv = [c / r0[0] for c in s0]
        return self.field.element(inv)

    def __repr__(self):
        return f"Cyclo({self.field.m}, {format_scalar(self)})"


def _poly_sub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


class PrimeField:
    """The prime field F_p.  The distinguished root of unity is the smallest
    primitive root mod p, so integer root-exponents make sense in char p too."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            raise ValueError("p must be prime")
        self.p = p
        self.characteristic = p
        self.unit_order = p - 1 if p > 2 else 1
        self.generator = self._primitive_root()

    def _primitive_root(self):
        if self.p == 2:
            return 1
        target = self.p - 1
        for g in range(2, self.p):
            if all(pow(g, target // q, self.p) != 1 for q in _prime_factors(target)):
                return g
        raise RuntimeError("no primitive root found")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def element(self, v: int) -> Fp:
        return Fp(self, v % self.p)

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def from_rational(self, r) -> Fp:
        r = Fraction(r)
        return self.from_ratio(r.numerator, r.denominator)

    def from_ratio(self, n: int, d: int) -> Fp:
        """n / d for integers n and d > 0."""
        g = math.gcd(n, d)
        if d // g % self.p == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return self.element(n // g * pow(d // g, -1, self.p))

    def root(self, k: int) -> Fp:
        return self.element(pow(self.generator, k % self.unit_order, self.p))

    def order(self, x: Fp):
        """The order of x in the unit group: p - 1 with every prime factor l
        divided out while x^(n/l) = 1 still holds."""
        if x.value == 0:
            raise ZeroDivisionError("not a unit")
        n = self.p - 1
        for l in _prime_factors(n):
            while n % l == 0 and pow(x.value, n // l, self.p) == 1:
                n //= l
        return n


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class Fp:
    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def is_zero(self):
        return self.value == 0

    def is_one(self):
        return self.value == 1

    def __eq__(self, other):
        return isinstance(other, Fp) and other.field == self.field and other.value == self.value

    def __hash__(self):
        return hash((self.field.p, self.value))

    def _check(self, other):
        if not isinstance(other, Fp) or other.field != self.field:
            raise TypeError("scalars from different fields")

    def __add__(self, other):
        self._check(other)
        return Fp(self.field, (self.value + other.value) % self.field.p)

    def __sub__(self, other):
        self._check(other)
        return Fp(self.field, (self.value - other.value) % self.field.p)

    def __neg__(self):
        return Fp(self.field, -self.value % self.field.p)

    def __mul__(self, other):
        self._check(other)
        return Fp(self.field, self.value * other.value % self.field.p)

    def __pow__(self, n):
        return Fp(self.field, pow(self.value, n, self.field.p))

    def times_root(self, k: int):
        """self * zeta^k for the field's distinguished root."""
        return self * self.field.root(k)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fp(self.field, pow(self.value, -1, self.field.p))

    def __repr__(self):
        return f"Fp({self.value} mod {self.field.p})"


# ---------------------------------------------------------------------------
# roots of unity as exponent data
# ---------------------------------------------------------------------------

class RootOfUnity:
    """zeta^k where zeta is the field's distinguished root (order m)."""

    __slots__ = ("k", "m")

    def __init__(self, k: int, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.k = k % m

    def order(self) -> int:
        return self.m // math.gcd(self.m, self.k)

    def embed(self, field):
        return field.root(self.k)

    def __eq__(self, other):
        return isinstance(other, RootOfUnity) and (self.k, self.m) == (other.k, other.m)

    def __hash__(self):
        return hash((self.k, self.m))

    def __repr__(self):
        return f"RootOfUnity({self.k}, {self.m})"


def ord_of(q):
    """Least n >= 1 with q^n = 1; None when no such n exists."""
    if isinstance(q, RootOfUnity):
        return q.order()
    if q.is_zero():
        raise ZeroDivisionError("not a unit")
    return q.field.order(q)


# ---------------------------------------------------------------------------
# q-numbers and Gaussian binomials
# ---------------------------------------------------------------------------

def q_number(n: int, q):
    """(n)_q = 1 + q + ... + q^(n-1)."""
    field = q.field
    acc, p = field.zero(), field.one()
    for _ in range(n):
        acc = acc + p
        p = p * q
    return acc


def q_factorial(n: int, q):
    field = q.field
    acc = field.one()
    for i in range(1, n + 1):
        acc = acc * q_number(i, q)
    return acc


@lru_cache(maxsize=None)
def gauss_binomial_poly(n: int, i: int) -> tuple[int, ...]:
    """The Gaussian binomial as an integer polynomial in q (q-Pascal recurrence)."""
    if i < 0 or i > n:
        raise ValueError("need 0 <= i <= n")
    if i == 0 or i == n:
        return (1,)
    # binom(n,i) = q^i binom(n-1,i) + binom(n-1,i-1)
    a = list(gauss_binomial_poly(n - 1, i))
    b = gauss_binomial_poly(n - 1, i - 1)
    out = [0] * i + a
    for j, c in enumerate(b):
        if j < len(out):
            out[j] += c
        else:
            out.append(c)
    return tuple(out)


def q_binomial(n: int, i: int, q):
    """Gaussian binomial evaluated at q; defined even where q-factorials vanish."""
    if i < 0 or i > n:
        raise ValueError("need 0 <= i <= n")
    field = q.field
    poly = gauss_binomial_poly(n, i)
    acc, p = field.zero(), field.one()
    for c in poly:
        if c:
            acc = acc + field.from_rational(c) * p
        p = p * q
    return acc


def binom_vanishes(n: int, q) -> bool:
    """True iff all Gaussian binomials binom(n,i)_q vanish for 0 < i < n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if q.is_zero():
        raise ZeroDivisionError("not a unit")
    return all(q_binomial(n, i, q).is_zero() for i in range(1, n))


def binom_vanishes_closed_form(n: int, q) -> bool:
    """The order-theoretic side of the vanishing criterion, for cross-checks:
    ord q = n in characteristic 0; p^k ord q = n for some k >= 0 in char p."""
    r = ord_of(q)
    if r is None:
        return False
    return is_height_for_order(n, r, q.field.characteristic)


def is_height_for_order(n: int, r: int, p: int) -> bool:
    """Whether n is the height of a root of unity of order r in
    characteristic p: n = r when p = 0, n = p^k r for some k >= 0 otherwise."""
    if p == 0:
        return n == r
    if n % r:
        return False
    k = n // r
    while k % p == 0:
        k //= p
    return k == 1


# ---------------------------------------------------------------------------
# literal syntax (datum file format)
# ---------------------------------------------------------------------------

def parse_scalar_literal(lit, field):
    """int -> root exponent; "a/b" -> rational; list of "a/b" -> coefficient vector."""
    if isinstance(lit, bool):
        raise ValueError(f"bad scalar literal: {lit!r}")
    if isinstance(lit, int):
        return field.root(lit)
    try:
        if isinstance(lit, str):
            # the ASCII forms n, -n, n/d and -n/d with d > 0 skip Fraction's regular expression
            num, slash, den = lit.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit() and den.strip("0")):
                return field.from_ratio(int(num), int(den) if slash else 1)
            return field.from_rational(Fraction(lit))
        if isinstance(lit, list):
            if not isinstance(field, CycloField):
                raise ValueError("coefficient vectors only make sense over a cyclotomic field")
            if len(lit) != field.degree:
                raise ValueError(f"coefficient vector must have length {field.degree}")
            return field.element([Fraction(str(c)) for c in lit])
    except ZeroDivisionError:
        raise ValueError(f"scalar literal divides by zero: {lit!r}") from None
    raise ValueError(f"bad scalar literal: {lit!r}")


def scalar_literal(x):
    """Inverse of parse_scalar_literal.  Over Q(zeta_m) the most compact
    form; over F_p the residue, whose root exponent would cost a discrete
    logarithm to find."""
    if isinstance(x, Fp):
        return str(x.value)
    f = x.field
    hit = f.root_multiple(x)
    if hit is not None:
        s, k = hit
        if s == 1:
            return k
        if s == -1 and f.m % 2 == 0:
            return (k + f.m // 2) % f.m
    if x.is_rational():
        return str(x.coeffs[0])
    return [str(c) for c in x.coeffs]


def format_scalar(x) -> str:
    """Human-readable form; z denotes the distinguished root of unity."""
    if isinstance(x, Fp):
        return str(x.value)
    parts = []
    den = x.den
    for i, n in enumerate(x.num):
        if not n:
            continue
        c = n if den == 1 else Fraction(n, den)
        if i == 0:
            parts.append(str(c))
        else:
            z = "z" if i == 1 else f"z^{i}"
            if c == 1:
                parts.append(z)
            elif c == -1:
                parts.append(f"-{z}")
            else:
                parts.append(f"{c}*{z}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
