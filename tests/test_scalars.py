"""Exact scalar arithmetic: cyclotomic fields, orders, Gaussian binomials."""

import math
import random
import time
from fractions import Fraction

import pytest

from pbw.scalars import (
    Cyclo,
    CycloField,
    PrimeField,
    RootOfUnity,
    binom_vanishes,
    binom_vanishes_closed_form,
    cyclotomic_poly,
    euler_phi,
    format_scalar,
    gauss_binomial_poly,
    ord_of,
    parse_scalar_literal,
    q_binomial,
    q_factorial,
    q_number,
    scalar_literal,
)


def longdiv_cyclotomic(m):
    """Independent oracle: divide x^m - 1 by the product of the lower
    cyclotomic polynomials, over Fraction coefficients."""
    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def divmod_(num, den):
        num = list(num)
        q = [Fraction(0)] * (len(num) - len(den) + 1)
        for i in range(len(num) - len(den), -1, -1):
            c = num[i + len(den) - 1] / den[-1]
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
        while num and num[-1] == 0:
            num.pop()
        return q, num

    den = [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            den = mul(den, [Fraction(c) for c in longdiv_cyclotomic(d)])
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)
    q, r = divmod_(num, den)
    assert not r
    return tuple(int(c) for c in q)


def test_cyclotomic_poly_base_case():
    assert cyclotomic_poly(1) == (-1, 1)


def test_cyclotomic_poly_frozen_values():
    # computed with the long-division oracle
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 10, 12, 15])
def test_cyclotomic_poly_matches_longdiv_oracle(m):
    assert cyclotomic_poly(m) == longdiv_cyclotomic(m)


def test_cyclotomic_poly_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 12])
def test_root_of_unity_orders(m):
    f = CycloField(m)
    z = f.root(1)
    assert (z ** m).is_one()
    for j in range(1, m):
        assert not (z ** j).is_one()


def test_field_laws_on_random_elements():
    rng = random.Random(7)
    for m in (4, 5, 6, 12):
        f = CycloField(m)

        def rnd():
            return f.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(f.degree)])

        for _ in range(40):
            a, b, c = rnd(), rnd(), rnd()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero():
                assert (a * a.inverse()).is_one()
            assert (a - a).is_zero()


def test_ord_examples():
    assert ord_of(RootOfUnity(2, 6)) == 3
    assert ord_of(RootOfUnity(0, 6)) == 1
    assert ord_of(PrimeField(7).element(2)) == 3
    f = CycloField(6)
    assert ord_of(f.root(2)) == 3
    assert ord_of(f.one() + f.one()) is None  # 2 has infinite order
    with pytest.raises(ZeroDivisionError):
        ord_of(f.zero())


def loop_order(x):
    """Reference: the least n >= 1 with x^n = 1, by repeated multiplication."""
    acc, n = x, 1
    while not acc.is_one():
        acc, n = acc * x, n + 1
    return n


def test_prime_field_order_matches_the_multiplication_loop():
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    for p in primes:
        f = PrimeField(p)
        for v in range(1, p):
            assert f.order(f.element(v)) == loop_order(f.element(v)), (p, v)


def test_prime_field_order_is_fast_at_the_largest_prime():
    f = PrimeField(999_999_937)  # the largest prime below MAX_PRIME
    start = time.perf_counter()
    assert ord_of(f.root(1)) == 999_999_936
    assert ord_of(f.root(2)) == 499_999_968
    assert time.perf_counter() - start < 1


def test_cyclo_order_and_inverse_of_root_multiples():
    # +-zeta^k are read off the root table; rational multiples of other
    # magnitudes, and elements that are no multiple of a root, are not
    # roots of unity
    for m in range(1, 41):
        f = CycloField(m)
        others = [f.root(k) * f.from_rational(Fraction(3, 2)) for k in (0, 1)]
        if f.degree > 1:
            others.append(f.from_rational(2) + f.root(1))
            others.append(f.element([Fraction(1, 3), -2] + [0] * (f.degree - 2)))
        for x in others:
            assert f.order(x) is None
            assert (x * x.inverse()).is_one(), (m, x)
        for k in range(m):
            for sign in (1, -1):
                x = f.root(k) * f.from_rational(sign)
                assert f.order(x) == loop_order(x), (m, k, sign)
                assert (x * x.inverse()).is_one(), (m, k, sign)


def test_cyclo_inverse_of_rationals_and_rational_multiples_of_roots():
    # both are inverted with no division; the result must be the inverse and
    # in the reduced form that equality compares
    scales = [Fraction(n, d) for n, d in ((1, 1), (-1, 1), (3, 2), (-2, 5), (7, 1), (-1, 6), (12, 35))]
    for m in range(1, 25):
        f = CycloField(m)
        xs = [f.from_rational(s) for s in scales]
        xs += [f.root(k) * f.from_rational(s) for k in range(m) for s in scales]
        for x in xs:
            inv = x.inverse()
            assert (inv * x).is_one(), (m, x)
            assert inv == f.element(inv.coeffs), (m, x)


def test_root_of_unity_embedding():
    f = CycloField(6)
    r = RootOfUnity(2, 6)
    assert r.embed(f) == f.root(2)
    assert ord_of(r.embed(f)) == r.order()
    fp = PrimeField(7)
    s = RootOfUnity(1, fp.unit_order)
    assert s.embed(fp) == fp.element(fp.generator)


def test_cross_field_arithmetic_is_rejected():
    with pytest.raises(TypeError):
        CycloField(4).one() + CycloField(6).one()
    with pytest.raises(TypeError):
        CycloField(4).one() * PrimeField(5).one()
    with pytest.raises(TypeError):
        PrimeField(3).one() - PrimeField(5).one()


def test_q_number_and_factorial():
    f = CycloField(6)
    q = f.root(1)
    assert q_number(3, q) == f.one() + q + q * q
    assert q_number(0, q).is_zero()
    assert q_factorial(3, f.one()) == f.from_rational(6)


def test_q_binomial_examples():
    f = CycloField(3)
    q = f.root(1)
    assert q_binomial(2, 1, q) == f.one() + q
    assert q_binomial(4, 2, f.one()) == f.from_rational(6)
    assert q_binomial(3, 1, q).is_zero()
    with pytest.raises(ValueError):
        q_binomial(3, 4, q)


def test_q_binomial_agrees_with_factorial_quotient_when_defined():
    f = CycloField(12)
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(0, 7)
        i = rng.randint(0, n)
        q = f.root(rng.randrange(12))
        denom = q_factorial(n - i, q) * q_factorial(i, q)
        if not denom.is_zero():
            assert q_binomial(n, i, q) * denom == q_factorial(n, q)


def test_q_pascal_identities():
    f = CycloField(12)
    for k in range(12):
        q = f.root(k)
        for n in range(1, 13):
            for i in range(1, n + 1):
                b = q_binomial(n + 1, i, q)
                assert q ** i * q_binomial(n, i, q) + q_binomial(n, i - 1, q) == b
                assert q_binomial(n, i, q) + q ** (n + 1 - i) * q_binomial(n, i - 1, q) == b


def test_gauss_binomial_symmetry():
    for n in range(9):
        for i in range(n + 1):
            assert gauss_binomial_poly(n, i) == gauss_binomial_poly(n, n - i)


def test_binom_vanishes_examples():
    f6 = CycloField(6)
    assert binom_vanishes(6, f6.root(1)) is True
    assert binom_vanishes(4, f6.root(1)) is False
    assert binom_vanishes(2, PrimeField(2).one()) is True


def test_binom_vanishes_agrees_with_closed_form():
    fields = [CycloField(12), PrimeField(2), PrimeField(3)]
    for f in fields:
        units = range(f.unit_order) if f.characteristic else range(f.m)
        for k in units:
            q = f.root(k)
            for n in range(2, 13):
                assert binom_vanishes(n, q) == binom_vanishes_closed_form(n, q), (f, k, n)


def test_binom_vanishes_rejects_bad_args():
    f = CycloField(4)
    with pytest.raises(ValueError):
        binom_vanishes(1, f.one())
    with pytest.raises(ZeroDivisionError):
        binom_vanishes(2, f.zero())


def test_prime_field_basics():
    f = PrimeField(5)
    a, b = f.element(3), f.element(4)
    assert (a * b).value == 2
    assert (a + b).value == 2
    assert (a.inverse() * a).is_one()
    assert f.root(0).is_one()
    assert ord_of(f.root(1)) == 4
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_two_has_trivial_units():
    f = PrimeField(2)
    assert f.unit_order == 1
    assert f.root(5).is_one()


def test_scalar_literals_round_trip():
    f = CycloField(6)
    for lit in [0, 1, 5, "3/2", "-7"]:
        x = parse_scalar_literal(lit, f)
        assert parse_scalar_literal(scalar_literal(x), f) == x
    vec = ["1/2", "-2"]
    x = parse_scalar_literal(vec, f)
    assert x == f.element([Fraction(1, 2), Fraction(-2)])
    assert parse_scalar_literal(scalar_literal(x), f) == x
    fp = PrimeField(7)
    for lit in [0, 1, 4, "5"]:
        x = parse_scalar_literal(lit, fp)
        assert parse_scalar_literal(scalar_literal(x), fp) == x
    with pytest.raises(ValueError):
        parse_scalar_literal(["1/2"], f)  # wrong length
    with pytest.raises(ValueError):
        parse_scalar_literal(["1"], fp)  # vectors need a cyclotomic field


# ASCII integers and fractions, and every other form that Fraction reads or
# refuses: whitespace, signs, decimals, exponents, non-ASCII digits, zero and
# signed denominators, malformed slashes
_RATIONAL_LITERALS = [
    "0", "-0", "7", "-7", "007", "3/2", "-3/2", "6/4", "0/5", "12345678901234567890/3", "1/7", "3/14",
    "1/0", "1/00", "-1/0", " 1", "1 ", "+1", "+3/2", "1.5", "-.5", "1e3", "1E-2", "\u0661", "\u0663/\u0664",
    "\u00b2", "1_0", "", "-", "/", "1/", "/2", "--1", "1/-2", "1//2", "3/2/1", "x", "0x10", "inf", "nan",
    "1" * 5000, "-" + "1" * 5000 + "/7", "3/" + "1" * 5000,  # past the int() digit limit of Python 3.11
]


@pytest.mark.parametrize("field", [CycloField(3), PrimeField(7)])
def test_string_literals_read_as_fraction_reads_them(field):
    # the reference reads every string with Fraction, and reports a zero
    # denominator (or one divisible by p) as parse_scalar_literal does
    def reference(lit):
        try:
            if isinstance(lit, list):
                return field.element([Fraction(str(c)) for c in lit])
            return field.from_rational(Fraction(lit))
        except ZeroDivisionError:
            raise ValueError(f"scalar literal divides by zero: {lit!r}") from None

    def outcome(parse, lit):
        try:
            x = parse(lit)
        except ValueError as e:
            return type(e), str(e)
        return x, type(x)

    literals = list(_RATIONAL_LITERALS)
    if isinstance(field, CycloField):
        literals += [["1/2", 3], [1.5, "-0"], ["\u0661", " 2"], ["1/0", "1"], [True, "1"], [None, "1"]]
    for lit in literals:
        assert outcome(lambda t: parse_scalar_literal(t, field), lit) == outcome(reference, lit), lit


def test_format_scalar():
    f = CycloField(4)
    assert format_scalar(f.zero()) == "0"
    assert format_scalar(f.one() + f.root(1)) == "1 + z"
    assert format_scalar(-f.root(1)) == "-z"
    assert euler_phi(12) == 4


ROTATION_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 20, 30)


def unmarked(x):
    """x with its root marker cleared, so that products take the general path."""
    return Cyclo(x.field, x.num, x.den)


def random_cyclo(f, rng):
    return f.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(f.degree)])


@pytest.mark.parametrize("m", ROTATION_CONDUCTORS)
def test_times_root_equals_the_general_product(m):
    f = CycloField(m)
    rng = random.Random(m)
    samples = [f.zero(), f.one(), f.from_rational(Fraction(-3, 7))]
    samples += [f.root(j) for j in range(m)] + [random_cyclo(f, rng) for _ in range(12)]
    for c in samples:
        for k in range(-m, 2 * m):
            expected = unmarked(c) * unmarked(f.root(k))
            got = c.times_root(k)
            # equal vectors over an equal denominator: still fully reduced
            assert (got.num, got.den) == (expected.num, expected.den), (c, k)
            assert got.root_exp is None or got == f.root(got.root_exp)
            # the product with a marked factor takes the rotation, either side
            assert c * f.root(k) == expected == f.root(k) * c


@pytest.mark.parametrize("m", ROTATION_CONDUCTORS)
def test_power_rows_hold_the_m_powers(m):
    f = CycloField(m)
    rows = f.power_rows()
    assert len(rows) == m and f.power_rows() is rows
    for j, row in enumerate(rows):
        vec = [0] * f.degree
        for i, n in row:
            assert n
            vec[i] = n
        assert vec == reference_remainder([0] * j + [1], m)


def test_root_markers_stay_exact_under_random_operations():
    # short chains, so that the coefficients stay small
    rng = random.Random(11)
    marked = 0
    for m in ROTATION_CONDUCTORS:
        f = CycloField(m)
        for _ in range(30):
            pool = [f.one(), f.root(rng.randrange(m)), f.root(rng.randrange(m)), random_cyclo(f, rng)]
            for _ in range(8):
                a, b = rng.choice(pool), rng.choice(pool)
                op = rng.randrange(6)
                if op == 5:
                    x = -a
                elif op == 0:
                    x = a + b
                elif op == 1:
                    x = a - b
                elif op == 2:
                    x = a * b
                elif op == 3:
                    x = a.times_root(rng.randint(-2 * m, 2 * m))
                elif a.is_zero():
                    continue
                else:
                    x = a.inverse()
                if x.root_exp is not None:
                    marked += 1
                    assert x == f.root(x.root_exp) and 0 <= x.root_exp < m
                pool.append(x)
    assert marked > 500  # the markers were exercised


@pytest.mark.parametrize("m", [1, 2, 3, 6, 12])
def test_negation_and_inverse_keep_the_root_marker(m):
    # -zeta^k = zeta^(k + m/2) when m is even; over odd m it is no power of
    # zeta and stays unmarked.  The inverse of a marked element is marked,
    # and so is that of an irrational +-zeta^k that is a power of zeta
    f = CycloField(m)
    for k in range(m):
        z = f.root(k)
        assert (-z).root_exp == ((k + m // 2) % m if m % 2 == 0 else None)
        assert z.inverse().root_exp == (-k) % m
        for x in (z, -z, unmarked(z), -unmarked(z)):
            assert -x == unmarked(x) * f.from_rational(-1)
            inv = x.inverse()
            assert inv * x == f.one() == unmarked(inv) * unmarked(x)
            assert inv.root_exp is None or inv == f.root(inv.root_exp)
            if not x.is_rational() and any(x == f.root(j) for j in range(m)):
                assert inv.root_exp is not None


def test_root_markers_do_not_change_equality_or_hashing():
    f = CycloField(12)
    for k in range(12):
        z = f.root(k)
        assert z.root_exp == k
        assert z == unmarked(z) and hash(z) == hash(unmarked(z))
    assert f.one().root_exp == 0 and f.zero().root_exp is None
    assert f.from_rational(1).root_exp is None  # not set by a general constructor


@pytest.mark.parametrize("m", [1, 2, 3, 6, 12])
def test_is_one_reads_the_root_marker(m):
    # a marked element is one exactly when its exponent is 0; the answer
    # must agree with the coefficient test on the unmarked copy
    f = CycloField(m)
    for k in range(-m, 2 * m):
        z = f.root(k)
        assert z.is_one() == (k % m == 0) == unmarked(z).is_one()
    assert f.one().is_one() and not f.zero().is_one() and not (-f.one()).is_one()


def test_prime_field_times_root():
    for p in (2, 7, 13):
        fp = PrimeField(p)
        for v in range(p):
            x = fp.element(v)
            for k in range(-p, 2 * p):
                assert x.times_root(k) == x * fp.root(k)


def format_scalar_by_fractions(x):
    """The formatting of format_scalar, read off the Fraction coefficients."""
    parts = []
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
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


def test_format_scalar_matches_the_fraction_formatting():
    rng = random.Random(3)
    for m in range(1, 31):
        f = CycloField(m)
        samples = [f.zero()] + [f.root(k) for k in range(m)] + [-f.root(k) for k in range(m)]
        samples += [random_cyclo(f, rng) for _ in range(20)]
        # entries that reduce to integers over a common denominator
        samples += [f.element([Fraction(1, 2)] + [1] * (f.degree - 1)), f.from_rational(Fraction(-4, 6))]
        for x in samples:
            assert format_scalar(x) == format_scalar_by_fractions(x), x.num


REFERENCE_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 20, 30, 105)


def reference_remainder(num, m):
    """An integer polynomial mod Phi_m, by long division by
    cyclotomic_poly(m), padded to phi(m) entries."""
    mod = cyclotomic_poly(m)
    d = len(mod) - 1
    num = list(num)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j, mj in enumerate(mod):
                num[i - d + j] -= c * mj
    return num[:d] + [0] * (d - len(num))


def reference_reduce(coeffs, m):
    """The Fraction coefficients of a rational polynomial mod Phi_m."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(1, *(c.denominator for c in coeffs))
    return tuple(Fraction(n, den) for n in reference_remainder([int(c * den) for c in coeffs], m))


def reference_product(x, y):
    """x * y by schoolbook multiplication, then long division by Phi_m."""
    a, b = x.num, y.num
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return tuple(Fraction(n, x.den * y.den) for n in reference_remainder(prod, x.field.m))


@pytest.mark.parametrize("m", REFERENCE_CONDUCTORS)
def test_products_equal_the_long_division_reference(m):
    f = CycloField(m)
    rng = random.Random(100 + m)
    # unmarked factors, so that every product with an irrational factor takes
    # the general path; large integer entries as well as small fractions
    pool = [f.zero(), f.from_rational(Fraction(-5, 3)), unmarked(f.root(m - 1)), unmarked(f.root(m // 2))]
    pool += [random_cyclo(f, rng) for _ in range(8)]
    pool += [f.element([rng.randint(-10**6, 10**6) for _ in range(f.degree)]) for _ in range(4)]
    for x in pool:
        for y in pool:
            assert (x * y).coeffs == reference_product(x, y), (x, y)


@pytest.mark.parametrize("m", REFERENCE_CONDUCTORS)
def test_element_folds_long_vectors_as_the_reference(m):
    f = CycloField(m)
    rng = random.Random(200 + m)
    for n in range(3 * f.degree + 3):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        x = f.element(coeffs)
        assert x.coeffs == reference_reduce(coeffs, m), coeffs
        assert math.gcd(x.den, *x.num) == 1  # fully reduced


@pytest.mark.parametrize("m", REFERENCE_CONDUCTORS)
def test_roots_equal_the_reference(m):
    f = CycloField(m)
    for k in range(-m, 2 * m):
        z = f.root(k)
        assert z.coeffs == reference_reduce([0] * (k % m) + [1], m), k
        assert z.root_exp == k % m


def loop_scalar_literal(x):
    """scalar_literal over Q(zeta_m) by comparing x with each of the m roots."""
    f = x.field
    for k in range(f.m):
        if x == f.root(k):
            return k
    if x.is_rational():
        return str(x.coeffs[0])
    return [str(c) for c in x.coeffs]


def test_scalar_literal_equals_the_comparison_with_every_root():
    rng = random.Random(5)
    for m in range(1, 61):
        f = CycloField(m)
        samples = [f.zero(), f.from_rational(2), f.from_rational(Fraction(-1, 3))]
        for k in range(m):
            z = unmarked(f.root(k))
            samples += [z, -z, z + z]
        samples += [random_cyclo(f, rng) for _ in range(10)]
        for x in samples:
            assert scalar_literal(x) == loop_scalar_literal(x), (m, x.num, x.den)
