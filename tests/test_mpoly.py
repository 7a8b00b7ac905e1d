"""MPolyQ against a plain dict-of-Fraction reference: the ring operations,
the scalar operations and their unit and zero short cuts, the
multiply-subtract, univariate views, content, lex division, grouped
evaluation and printing."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedge_iep import mpoly
from hedge_iep.mpoly import KRONECKER_MIN_PAIRS, VARS, InexactDivision, MPolyQ

A1 = MPolyQ.var("alpha1")

fractions = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4, 6])
)
nonzero_fractions = fractions.filter(bool)
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
ref_polys = st.dictionaries(monomials, fractions, max_size=5).map(
    lambda d: {m: c for m, c in d.items() if c}
)
nonzero_ref_polys = ref_polys.filter(bool)
scalars = st.one_of(st.integers(-9, 9), fractions)

ring_tests = settings(max_examples=100, deadline=None, derandomize=True)


def build(ref: dict) -> MPolyQ:
    """The MPolyQ of a reference polynomial, from constants and variables."""
    out = MPolyQ.const(0)
    for m, c in ref.items():
        term = MPolyQ.const(c)
        for name, e in zip(VARS, m):
            for _ in range(e):
                term = term * MPolyQ.var(name)
        out = out + term
    return out


def as_ref(p: MPolyQ) -> dict:
    """The coefficients of p, checking the canonical form on the way."""
    assert p.den > 0
    assert all(n for _, n in p.nums)
    assert [m for m, _ in p.nums] == sorted((m for m, _ in p.nums), reverse=True)
    assert gcd(p.den, *(n for _, n in p.nums)) == 1
    return {m: Fraction(n, p.den) for m, n in p.nums}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    """Lex division as the Fraction implementation did it: cancel the
    leading term of the remainder while the divisor's leading monomial
    divides it."""
    lm = max(b)
    quo: dict = {}
    rem = dict(a)
    while rem:
        m = max(rem)
        e = tuple(x - y for x, y in zip(m, lm))
        if min(e) < 0:
            break
        coeff = rem[m] / b[lm]
        quo[e] = quo.get(e, 0) + coeff
        rem = ref_add(rem, ref_mul({e: coeff}, b), -1)
    return quo, rem


def ref_repr(a: dict) -> str:
    if not a:
        return "0"
    parts = []
    for m in sorted(a, reverse=True):
        mono = "*".join(
            f"{VARS[i]}^{e}" if e > 1 else VARS[i] for i, e in enumerate(m) if e > 0
        )
        parts.append(f"{a[m]}*{mono}" if mono else str(a[m]))
    return " + ".join(parts)


@ring_tests
@given(ref_polys, ref_polys)
def test_ring_operations_match_the_reference(a, b):
    p, q = build(a), build(b)
    assert as_ref(p) == a and as_ref(q) == b
    assert as_ref(p + q) == ref_add(a, b)
    assert as_ref(p - q) == ref_add(a, b, -1)
    assert as_ref(-p) == ref_add({}, a, -1)
    assert as_ref(p * q) == ref_mul(a, b)
    assert (p + q == q + p) and (p * q == q * p)
    assert hash(p + q) == hash(q + p)


@ring_tests
@given(ref_polys, scalars, st.one_of(st.integers(1, 9), st.integers(-9, -1), nonzero_fractions))
def test_scalar_operations_match_the_reference(a, s, t):
    p = build(a)
    assert as_ref(p * s) == ref_mul(a, {(0, 0, 0): Fraction(s)}) == as_ref(s * p)
    assert as_ref(p / t) == ref_mul(a, {(0, 0, 0): 1 / Fraction(t)})
    assert as_ref(p + s) == ref_add(a, {(0, 0, 0): Fraction(s)}) == as_ref(s + p)
    assert as_ref(s - p) == ref_add({(0, 0, 0): Fraction(s)}, a, -1)


@ring_tests
@given(ref_polys, st.integers(0, 2))
def test_univariate_view_matches_the_reference(a, i):
    want = {}
    for m, c in a.items():
        want.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    view = build(a).univariate(i)
    assert [as_ref(c) for c in view.coeffs] == [
        want.get(k, {}) for k in range(max(want, default=-1) + 1)
    ]


@ring_tests
@given(ref_polys)
def test_units_and_zeros_return_equal_values(a):
    p, one, zero = build(a), MPolyQ.const(1), MPolyQ(())
    for got in (p * 1, 1 * p, p * Fraction(1), p * one, one * p, p + 0, 0 + p, p - 0,
                p + Fraction(0), p + zero, zero + p, p - zero):
        assert as_ref(got) == a
    for got in (0 - p, zero - p):
        assert as_ref(got) == ref_add({}, a, -1)
    for got in (p * 0, 0 * p, p * zero, zero * p):
        assert as_ref(got) == {}
    # the int comparisons take a short cut; they agree with the Fraction ones
    for n in (-2, 0, 1, 3):
        assert (p == n) == (p == Fraction(n)) == (a == ({(0, 0, 0): n} if n else {}))


@ring_tests
@given(ref_polys)
def test_content_normalized_and_printing_match_the_reference(a):
    p = build(a)
    content = (
        Fraction(gcd(*(c.numerator for c in a.values())), lcm(*(c.denominator for c in a.values())))
        if a
        else Fraction(1)
    )
    assert p.content() == content
    primitive, scale = p.normalized()
    if a:
        want = content if a[max(a)] > 0 else -content
        assert scale == want
        assert as_ref(primitive) == {m: c / want for m, c in a.items()}
        assert primitive.den == 1 and primitive.leading()[1] > 0
        assert p.leading() == (max(a), a[max(a)])
    else:
        assert primitive.is_zero() and scale == 1
    assert repr(p) == ref_repr(a)
    assert len(p) == len(a)
    assert p.total_degree() == max((sum(m) for m in a), default=-1)
    point = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    assert p.evaluate(*point) == sum(
        (c * point[0] ** m[0] * point[1] ** m[1] * point[2] ** m[2] for m, c in a.items()),
        Fraction(0),
    )


@ring_tests
@given(fractions)
def test_constants_equal_and_hash_like_numbers(c):
    p = MPolyQ.const(c)
    assert p.is_constant() and p.constant_value() == c
    assert p == c and p == MPolyQ.const(c)
    assert hash(p) == hash(c) == hash(MPolyQ.const(c))
    if c.denominator == 1:
        assert p == int(c) and hash(p) == hash(int(c))
    assert (p + A1 == c) is False
    assert p != c + 1


@ring_tests
@given(ref_polys, nonzero_ref_polys)
def test_exact_division_recovers_the_factor(a, b):
    p, q = build(a), build(b)
    assert (p * q).exact_div(q) == p
    assert (p * q) / q == p


def check_lex_division(num: dict, b: dict) -> None:
    p, q = build(num), build(b)
    want_q, want_r = ref_divmod(num, b)
    got_q, got_r = p.divmod_lex(q)
    assert as_ref(got_q) == want_q and as_ref(got_r) == want_r
    if want_r:
        with pytest.raises(InexactDivision):
            p.exact_div(q)
    else:
        assert p.exact_div(q) == got_q


@ring_tests
@given(ref_polys, nonzero_ref_polys, ref_polys)
def test_lex_division_matches_the_reference(a, b, r):
    check_lex_division(ref_add(ref_mul(a, b), r), b)


@ring_tests
@given(ref_polys, monomials, nonzero_fractions, ref_polys)
def test_lex_division_by_one_term_matches_the_reference(a, m, c, r):
    check_lex_division(ref_add(ref_mul(a, {m: c}), r), {m: c})


#: descending lex: alpha1^2 alpha2, alpha1 alpha2, alpha1, alpha2^2, 1
MIXED = {(2, 1, 0): Fraction(3), (1, 1, 0): Fraction(-5, 2), (1, 0, 0): Fraction(1),
         (0, 2, 0): Fraction(7, 3), (0, 0, 0): Fraction(-4)}


@pytest.mark.parametrize("num,m,c", [
    (MIXED, (1, 0, 0), Fraction(-2, 3)),  # stops at alpha2^2
    (MIXED, (0, 1, 0), Fraction(5)),  # stops at alpha1, before the divisible alpha2^2
    (MIXED, (1, 1, 0), Fraction(-1)),
    (MIXED, (0, 0, 0), Fraction(-7, 4)),  # a constant divides every term
    (MIXED, (3, 0, 0), Fraction(1, 2)),  # divides nothing
    ({(2, 1, 0): Fraction(-6, 5), (2, 0, 1): Fraction(9, 5)}, (2, 0, 0), Fraction(-3, 10)),
    ({}, (0, 1, 2), Fraction(-1)),
])
def test_lex_division_by_one_term(num, m, c):
    check_lex_division(num, {m: c})


def test_exact_division_with_fractional_quotients():
    a2 = MPolyQ.var("alpha2")
    assert A1.exact_div(2 * A1) == Fraction(1, 2)
    assert (A1 * a2 + A1).exact_div(3 * a2 + 3) == A1 / 3
    assert (A1 / 2).exact_div(A1 / 6) == 3
    with pytest.raises(InexactDivision):
        (A1 + 1).exact_div(2 * A1)
    with pytest.raises(ZeroDivisionError):
        A1.divmod_lex(MPolyQ.const(0))


def random_ref(rng: random.Random, terms: int, coeff) -> dict:
    """``terms`` distinct monomials of degree <= 7 in each variable, with
    nonzero coefficients drawn by ``coeff(rng)``."""
    monos = rng.sample([(i, j, k) for i in range(8) for j in range(8) for k in range(8)], terms)
    return {m: coeff(rng) for m in monos}


def signed_ints(bits: int):
    return lambda rng: rng.choice((-1, 1)) * rng.randrange(1, 1 << bits)


def signed_fractions(bits: int):
    return lambda rng: Fraction(signed_ints(bits)(rng), rng.choice((1, 2, 3, 7, 12)))


def univariate(terms: int, c) -> dict:
    return {(i, 0, 0): Fraction(c) for i in range(terms)}


#: (terms of a, terms of b, coefficient draw) on both sides of the threshold
SIZES = ((16, (KRONECKER_MIN_PAIRS - 1) // 16), (16, -(-KRONECKER_MIN_PAIRS // 16)),
         (1, KRONECKER_MIN_PAIRS), (40, 30))
PRODUCT_CASES = [
    pytest.param(la, lb, draw, id=f"{la}x{lb}-{name}")
    for la, lb in SIZES
    for name, draw in (
        ("small", signed_ints(8)),
        ("word", signed_ints(62)),
        ("multiword", signed_ints(140)),
        ("rational", signed_fractions(20)),
        ("positive", lambda rng: rng.randrange(1, 1 << 70)),
    )
]


@pytest.mark.parametrize("la,lb,draw", PRODUCT_CASES)
def test_products_on_both_sides_of_the_kronecker_threshold(la, lb, draw, monkeypatch):
    calls = []
    packed = mpoly._kronecker_product
    monkeypatch.setattr(mpoly, "_kronecker_product", lambda a, b: calls.append(1) or packed(a, b))
    rng = random.Random(la * 1000 + lb)
    a, b = random_ref(rng, la, draw), random_ref(rng, lb, draw)
    p, q = build(a), build(b)
    calls.clear()
    got = p * q
    assert bool(calls) == (la * lb >= KRONECKER_MIN_PAIRS)
    assert as_ref(got) == ref_mul(a, b)
    assert q * p == got


@pytest.mark.parametrize("bits", [8, 62, 63, 64, 130])
def test_kronecker_products_with_interior_cancellation(bits):
    rng = random.Random(bits)
    a = random_ref(rng, 100, signed_fractions(bits))
    p, a2 = build(a), MPolyQ.var("alpha2")
    diff, total = (A1 - a2) * p, (A1 + a2) * p
    assert len(diff) * 2 >= KRONECKER_MIN_PAIRS
    square_diff = ref_mul({(2, 0, 0): 1, (0, 2, 0): -1}, a)
    assert as_ref(diff * (A1 + a2)) == square_diff == as_ref(total * (A1 - a2))
    assert as_ref(diff * total) == as_ref(build(square_diff) * p)
    assert as_ref(diff * total - total * diff) == {}


@pytest.mark.parametrize("target_bits", [62, 63, 64, 127, 128])
@pytest.mark.parametrize("sign", [1, -1])
def test_kronecker_product_at_the_coefficient_bound(target_bits, sign):
    # two univariate runs of 16 equal coefficients: the middle coefficient
    # of the product equals the bound 16 c^2 used to size the digits
    c = isqrt(((1 << target_bits) - 1) // 16)
    a, b = univariate(16, sign * c), univariate(16, c)
    got = build(a) * build(b)
    assert max(abs(v) for v in as_ref(got).values()) == 16 * c * c
    assert as_ref(got) == ref_mul(a, b)


def test_powers_are_repeated_products():
    p = build(random_ref(random.Random(5), 20, signed_fractions(10)))
    assert p**0 == 1 and (p**0).is_constant()
    assert p**1 == p
    assert p**3 == p * p * p
    assert MPolyQ(()) ** 0 == 1 and MPolyQ(()) ** 2 == 0
    with pytest.raises(ValueError):
        p ** -1


#: (terms of a, b, c, d) for a * b - c * d: both products below the
#: threshold, one on each side, both above, and zero operands
MUL_SUB_SIZES = (
    (3, 5, 4, 2), (1, KRONECKER_MIN_PAIRS - 1, 16, 15), (16, 16, 3, 3),
    (2, KRONECKER_MIN_PAIRS, 16, 17), (0, 6, 5, 5), (4, 4, 7, 0), (0, 3, 0, 2),
)


@pytest.mark.parametrize("sizes", MUL_SUB_SIZES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("draw", [signed_ints(8), signed_ints(90), signed_fractions(20)],
                         ids=["small", "multiword", "rational"])
def test_mul_sub_matches_the_two_products(sizes, draw, monkeypatch):
    calls = []
    packed = mpoly._kronecker_product
    monkeypatch.setattr(mpoly, "_kronecker_product", lambda a, b: calls.append(1) or packed(a, b))
    rng = random.Random(sum(sizes))
    refs = [random_ref(rng, n, draw) for n in sizes]
    p, q, r, s = map(build, refs)
    calls.clear()
    got = p.mul_sub(q, r, s)
    assert len(calls) == (sizes[0] * sizes[1] >= KRONECKER_MIN_PAIRS) + (
        sizes[2] * sizes[3] >= KRONECKER_MIN_PAIRS
    )
    assert as_ref(got) == ref_add(ref_mul(refs[0], refs[1]), ref_mul(refs[2], refs[3]), -1)
    assert got == p * q - r * s
    # a * b - a * b cancels to zero over 1
    assert p.mul_sub(q, q, p) == MPolyQ(()) and p.mul_sub(q, q, p).den == 1


def test_evaluate_sums_each_group_of_terms():
    # one (alpha1, alpha2) group, one alpha1 group of several alpha2 groups,
    # and a full box, at Fraction and int points: grouped sums against the
    # term-by-term sum, in Fractions
    shapes = [
        {(2, 1, k): Fraction(k + 1, 3) for k in range(5)},
        {(1, j, k): Fraction(j - k, 2) or Fraction(1) for j in range(3) for k in range(3)},
        random_ref(random.Random(7), 60, signed_fractions(30)),
    ]
    points = [(Fraction(1, 3), Fraction(-2), Fraction(5, 7)), (2, -1, 3), (0, 0, Fraction(1, 2))]
    for ref in shapes:
        p = build(ref)
        for point in points:
            got = p.evaluate(*point)
            want = sum(
                (c * Fraction(point[0]) ** m[0] * Fraction(point[1]) ** m[1]
                 * Fraction(point[2]) ** m[2] for m, c in ref.items()),
                Fraction(0),
            )
            assert got == want and type(got) is Fraction
    assert MPolyQ(()).evaluate(2, 3, 4) == 0 and type(MPolyQ(()).evaluate(2, 3, 4)) is Fraction
