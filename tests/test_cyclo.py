import cmath
import copy
import math
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartab import _modp, cyclo
from chartab.cyclo import (
    Cyclo,
    CycloError,
    cyclotomic_polynomial,
    dot,
    euler_phi,
    from_rational,
    kronecker_residues,
    root_of_unity,
    split,
    split_dot,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_small(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_degree_is_phi(self):
        assert len(cyclotomic_polynomial(60)) - 1 == euler_phi(60) == 16

    @pytest.mark.parametrize("e", [12, 30, 60, 105, 360, 997])
    def test_product_over_divisors(self, e):
        # oracle: multiplying Phi_d over all d | e recovers x^e - 1
        prod = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (e + 1)
        expected[0], expected[e] = -1, 1
        assert prod == expected

    def test_terms_are_kept_for_a_bounded_number_of_orders(self):
        info = cyclo._phi_terms.cache_info
        assert info().maxsize == cyclo.PHI_CACHE_SIZE
        for e in range(2, cyclo.PHI_CACHE_SIZE + 40):
            root_of_unity(e) * root_of_unity(e)
        assert info().currsize <= cyclo.PHI_CACHE_SIZE

    def test_out_of_range(self):
        with pytest.raises(CycloError):
            cyclotomic_polynomial(0)
        with pytest.raises(CycloError):
            cyclotomic_polynomial(10_001)


def remainder_by_phi(e, v):
    """v modulo Phi_e by one long division, every top power at a time."""
    phi = cyclotomic_polynomial(e)
    deg, v = len(phi) - 1, list(v)
    for i in range(len(v) - 1, deg - 1, -1):
        c = v[i]
        for j, p in enumerate(phi):
            v[i - deg + j] -= c * p
    return tuple(v[:deg] + [0] * (deg - len(v)))


@pytest.mark.parametrize("e", [1, 2, 3, 12, 60, 97, 105, 210, 400, 420])
def test_reduction_in_stages_matches_one_division_by_phi(e):
    # `_reduce` divides by Phi_q(x^(e/q)) for q = 1, p_1, p_1 p_2, ...,
    # rad(e) in turn; the remainder must be the one a single division by
    # Phi_e leaves, for vectors of up to 2e powers, dense and sparse
    rng = random.Random(e)
    for size in (0, 1, euler_phi(e), e, e + 1, 2 * e - 1, 2 * e):
        dense = [rng.randint(-9, 9) for _ in range(size)]
        sparse = [rng.choice((0, 0, 0, 1, -2)) for _ in range(size)]
        for v in (dense, sparse):
            assert cyclo._reduce(e, list(v)) == remainder_by_phi(e, v)


def test_phi_and_primality_match_a_sieve():
    # both read _modp.factorize; the oracle is a sieve of least prime factors
    top = 20_000
    least = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if least[p] == p:
            for m in range(p * p, top + 1, p):
                least[m] = min(least[m], p)
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if least[p] == p:
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    for n in range(-2, top + 1):
        assert _modp.is_prime(n) == (n >= 2 and least[n] == n), n
        if n >= 1:
            assert euler_phi(n) == phi[n], n


class TestRootsOfUnity:
    def test_minus_one(self):
        assert root_of_unity(2, 1) == -1

    def test_unity(self):
        assert root_of_unity(3, 0) == 1

    def test_golden_ratio_minimal_polynomial(self):
        # 2 cos(2 pi / 5) = zeta + zeta^4 is a root of x^2 + x - 1
        c = root_of_unity(5, 1) + root_of_unity(5, 4)
        assert c * c + c - 1 == 0

    def test_thirds_sum_to_minus_one(self):
        assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1

    def test_golden_value_numeric(self):
        v = from_rational(1) + root_of_unity(5, 1) + root_of_unity(5, 4)
        assert abs(v.to_float() - (1 + math.sqrt(5)) / 2) < 1e-12

    def test_inverse_of_root(self):
        assert root_of_unity(8, 1).inverse() == root_of_unity(8, 7)

    def test_exponent_wraps(self):
        assert root_of_unity(6, 7) == root_of_unity(6, 1)

    def test_bad_order(self):
        with pytest.raises(CycloError):
            root_of_unity(0, 1)

    @pytest.mark.parametrize("k", [1.5, 2.0, Fraction(3, 2)])
    def test_non_int_exponent_raises_cyclo_error(self, k):
        with pytest.raises(CycloError, match=r"^exponent .* is not an int"):
            root_of_unity(5, k)


class TestFieldOps:
    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            Cyclo.zero().inverse()

    def test_division(self):
        z = root_of_unity(12, 5)
        assert (z / z) == 1
        assert from_rational(3) / from_rational(2) == Fraction(3, 2)

    def test_pow_negative(self):
        z = root_of_unity(7, 2)
        assert z ** -1 == z.inverse()
        assert z ** 7 == 1

    @pytest.mark.parametrize("n", [2.0, -1.0, Fraction(1, 2), Fraction(2)],
                             ids=["float", "negative-float", "fraction", "whole-fraction"])
    def test_pow_by_a_non_int_raises_cyclo_error(self, n):
        # an exponent is an int; the loop would otherwise meet n & 1
        with pytest.raises(CycloError, match=r"^exponent .* is not an int"):
            root_of_unity(5) ** n

    def test_rational_powers_have_order_one(self):
        # zeta_e^k is held as arithmetic holds it: at order 1 when rational
        for e in range(1, 25):
            for k in range(e):
                z = root_of_unity(e, k)
                assert z.to_json() == (root_of_unity(e) ** k).to_json()
                if 2 * k % e == 0:
                    assert z.to_json() == from_rational(-1 if k else 1).to_json()

    def test_dot_holds_the_lcm_of_its_terms_orders(self):
        z3, z4, z5 = root_of_unity(3), root_of_unity(4), root_of_unity(5)
        assert dot([], []).to_json() == from_rational(0).to_json()
        assert dot([2, z3], [z4, z4]) == 2 * z4 + z3 * z4
        # the order-3 terms cancel, yet the sum is held at lcm(3, 4), as the
        # transforms and z3 + z4 - z3 hold it, wherever the order-4 term stands
        for ys in ([z3, -z3, z4], [z3, z4, -z3], [z4, z3, -z3]):
            v = dot([1, 1, 1], ys)
            assert v == z4
            assert v.order == 12
        assert (z3 + z4 - z3).order == 12
        # a rational result has order 1, though no term is rational
        assert dot([z3, z4], [z3.conj(), z4.conj()]).to_json() == from_rational(2).to_json()
        assert dot([z3, z3, 2], [1, -1, Fraction(1, 4)]).to_json() == \
            from_rational(Fraction(1, 2)).to_json()
        # z4 and -z4 = z3 (-z3^2 z4) cancel; z5 is left, held at lcm(4, 12, 5)
        w = -z3.conj() * z4
        assert w.order == 12
        v = dot([1, z3, 1], [z4, w, z5])
        assert v == z5
        assert v.order == 60

    def test_dot_grows_its_buffer_at_each_new_order(self):
        # terms at orders 3, then 4, then 5: the buffer holds nonconstant
        # sums when it grows, and each growing term brings a new denominator
        xs = [Cyclo(3, [1, Fraction(2, 3)]), Cyclo(3, [0, 1]), Cyclo(4, [Fraction(1, 2), -1]),
              Fraction(3, 5), Cyclo(4, [0, 2])]
        ys = [Cyclo(3, [0, 5]), 7, Cyclo(4, [1, Fraction(3, 7)]), root_of_unity(5, 2),
              Cyclo(5, [1, 0, -2, Fraction(1, 5)])]
        total = Cyclo.zero()
        for x, y in zip(xs, ys):
            total = total + x * y
        v = dot(xs, ys)
        assert total.order == 60
        assert v.to_json() == total.to_json()

    @pytest.mark.parametrize("compute", [
        lambda z: from_rational(0.1),
        lambda z: Cyclo._coerce(0.5),
        lambda z: z * 0.5,
        lambda z: 0.5 * z,
        lambda z: z + 0.25,
        lambda z: 0.25 - z,
        lambda z: dot([0.5], [z]),
        lambda z: dot([z, 1], [1, 0.5]),
    ], ids=["from_rational", "coerce", "mul", "rmul", "add", "rsub", "dot", "dot-right"])
    def test_a_float_never_enters_exact_arithmetic(self, compute):
        # each would otherwise hold the float's binary fraction, such as
        # 3602879701896397/36028797018963968 for 0.1, or die on .numerator
        with pytest.raises(CycloError, match=r"^float .* is not an int or a Fraction"):
            compute(root_of_unity(3))

    @pytest.mark.parametrize("place", [0, 3], ids=["constructor", "unreduced"])
    @pytest.mark.parametrize("bad", [0.5, "1"], ids=["float", "str"])
    def test_a_coefficient_is_an_int_or_a_fraction(self, place, bad):
        # the constructor died on .denominator; a coefficient past phi(3),
        # which the reduction moves onto 1 and z, is checked as well
        coeffs = [0] * place + [bad, True]
        with pytest.raises(CycloError, match=f"^{type(bad).__name__} .* is not an int or a Fraction"):
            Cyclo(3, coeffs)
        coeffs[place] = Fraction(1, 2)
        assert Cyclo(3, coeffs) == Fraction(1, 2) + root_of_unity(3)

    def test_the_constructor_gives_the_canonical_form(self):
        z = root_of_unity(3)
        # z^2 was held as the unreduced vector (0, 0, 1), unequal to z^2 and
        # added as z^2 + z^2 = z^2
        assert Cyclo(3, [0, 0, 1]) == z ** 2
        assert Cyclo(3, [0, 0, 1]) + z ** 2 == 2 * z ** 2
        assert Cyclo(3, [0, 0, 1]).to_json() == (z ** 2).to_json()
        # a rational value is held at order 1, in lowest terms
        assert Cyclo(5, [5]).to_json() == from_rational(5).to_json()
        assert Cyclo(3, [1, 1, 1]).to_json() == from_rational(0).to_json()
        half = Cyclo(4, [Fraction(2, 4), 0])
        assert (half.order, half.nums, half.den) == (1, (1,), 2)
        assert Cyclo(7, []).to_json() == from_rational(0).to_json()
        assert Cyclo.from_json({"order": 5, "coeffs": ["1", "0", "0", "0"]}).to_json() == \
            {"order": 1, "coeffs": ["1"]}

    @pytest.mark.parametrize("order", [0, -3, 10_001, 4.0, True, "4"])
    def test_the_constructor_refuses_an_order_outside_the_field_range(self, order):
        with pytest.raises(CycloError, match="order"):
            Cyclo(order, [1])

    def test_a_float_never_compares_equal_by_accident(self):
        # 1 == 1.0 in Python, so a silent False would be a wrong answer
        for inexact in (1.0, complex(1)):
            with pytest.raises(CycloError, match=r"^(float|complex) .* is not an int or a Fraction"):
                from_rational(1) == inexact
            with pytest.raises(CycloError, match=r"^(float|complex) .* is not an int or a Fraction"):
                inexact == from_rational(1)
        # an unrelated type is simply not equal
        assert (root_of_unity(3) == "x") is False
        assert (root_of_unity(3) == None) is False  # noqa: E711
        assert root_of_unity(3) != "x"

    def test_a_bool_is_an_int(self):
        one = from_rational(True)
        assert (one.order, one.nums, one.den) == (1, (1,), 1)
        assert type(one.nums[0]) is int
        assert (root_of_unity(3) * True).to_json() == root_of_unity(3).to_json()
        assert dot([True, False], [root_of_unity(4), 5]) == root_of_unity(4)

    def test_dot_refuses_operands_of_unequal_length(self):
        # zip would stop at the shorter operand, and dot would return 5
        with pytest.raises(ValueError):
            dot([1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            dot([root_of_unity(3)], [1, root_of_unity(4)])
        with pytest.raises(ValueError):
            dot([], [1])

    def test_dot_refuses_a_term_beyond_the_largest_order(self):
        # lcm(997, 991) = 988027: the term that brings it is refused before a
        # buffer of that length (8 MB) is made, whether it is one product or
        # the second of two terms, and even when a later term would cancel
        # it, as z997 + z991 - z997 is refused
        x, y = root_of_unity(997), root_of_unity(991)
        for xs, ys in [([x], [y]), ([x, y], [1, 1]), ([x, y, x], [1, 1, -1])]:
            tracemalloc.start()
            try:
                with pytest.raises(CycloError, match="988027"):
                    dot(xs, ys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10**6, (len(xs), peak)
        with pytest.raises(CycloError, match="988027"):
            x + y - x

    def test_mixed_order_arithmetic(self):
        # zeta_4 + zeta_3 lands in Q(zeta_12)
        v = root_of_unity(4, 1) + root_of_unity(3, 1)
        assert v.order == 12
        assert abs(v.to_float() - (1j + cmath.exp(2j * cmath.pi / 3))) < 1e-12
        # zeta_2 = -1 is rational, so it adds to zeta_3 inside Q(zeta_3)
        v = root_of_unity(2, 1) + root_of_unity(3, 1)
        assert v.order == 3
        assert abs(v.to_float() - (-1 + cmath.exp(2j * cmath.pi / 3))) < 1e-12


class TestGalois:
    def test_conj_of_fifth_root(self):
        assert root_of_unity(5, 1).conj() == root_of_unity(5, 4)

    def test_conj_fixes_rationals(self):
        assert from_rational(Fraction(3, 2)).conj() == Fraction(3, 2)

    def test_galois_swaps_golden_conjugates(self):
        v = from_rational(1) + root_of_unity(5, 1) + root_of_unity(5, 4)
        w = v.galois(2)
        assert w == from_rational(1) + root_of_unity(5, 2) + root_of_unity(5, 3)
        assert abs(w.to_float() - (1 - math.sqrt(5)) / 2) < 1e-12

    def test_galois_requires_coprime(self):
        with pytest.raises(CycloError):
            root_of_unity(6, 1).galois(2)

    @pytest.mark.parametrize("t", [2.0, Fraction(2)])
    def test_galois_by_a_non_int_raises_cyclo_error(self, t):
        with pytest.raises(CycloError, match=r"^galois exponent .* is not an int"):
            root_of_unity(5).galois(t)


class TestPredicates:
    def test_is_rational(self):
        assert not root_of_unity(4, 1).is_rational()
        assert (root_of_unity(4, 1) * root_of_unity(4, 3)).is_rational()

    def test_as_rational_errors(self):
        with pytest.raises(CycloError):
            root_of_unity(3, 1).as_rational()

    def test_change_order(self):
        v = root_of_unity(2, 1).change_order(6)
        assert v.order == 6
        assert v == root_of_unity(6, 3)
        assert v == -1

    def test_change_order_requires_divisor(self):
        with pytest.raises(CycloError):
            root_of_unity(4, 1).change_order(6)

    def test_to_float_sixth_root(self):
        v = root_of_unity(6, 1).to_float()
        assert abs(v.real - 0.5) < 1e-12
        assert abs(v.imag - math.sin(math.pi / 3)) < 1e-12


class TestRendering:
    def test_exact_str(self):
        v = from_rational(1) + root_of_unity(5, 1)
        assert v.exact_str() == "1 + z(5)^1"

    def test_display_includes_approx(self):
        assert "~" in str(root_of_unity(4, 1))

    def test_json_round_trip(self):
        v = from_rational(Fraction(2, 3)) + root_of_unity(12, 7)
        data = v.to_json()
        assert data["order"] == 12
        assert all(isinstance(c, str) for c in data["coeffs"])
        assert Cyclo.from_json(data) == v

    def test_copy_and_pickle_rebuild_the_same_fields(self):
        for v in (from_rational(Fraction(2, 3)) + root_of_unity(12, 7), from_rational(-5)):
            for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert (w.order, w.nums, w.den) == (v.order, v.nums, v.den)

    @pytest.mark.parametrize("order, n_coeffs", [
        (0, 0),  # would divide by zero in to_float
        (20_000, 8_000),  # phi(20000) = 8000, above MAX_ORDER
    ])
    def test_json_order_outside_the_field_range(self, order, n_coeffs):
        with pytest.raises(CycloError, match="outside"):
            Cyclo.from_json({"order": order, "coeffs": ["0"] * n_coeffs})

    @pytest.mark.parametrize("data", [
        {"order": 3, "coeffs": ["1/0", "0"]},  # a zero denominator
        {"order": 3, "coeffs": ["x", "0"]},  # not a number
        {"order": 4, "coeffs": [1.5, 0]},  # a float, which is inexact
        {"order": 4.9, "coeffs": ["0", "0"]},  # a float order, not cut to 4
        {"order": "4", "coeffs": ["0", "0"]},
        {"order": True, "coeffs": ["0"]},  # a bool is not an order
        {"order": 1, "coeffs": [True]},  # nor a coefficient
        {"order": 3, "coeffs": "12"},  # not a list
        {"order": 3},
    ])
    def test_json_malformed_input(self, data):
        with pytest.raises(CycloError):
            Cyclo.from_json(data)


# -- property tests ------------------------------------------------------------

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def root_values(draw):
    e = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=0, max_value=11))
    q = draw(small_rationals)
    base = root_of_unity(e, k % e)
    return base * q if draw(st.booleans()) else base + q


@st.composite
def field_elements(draw):
    """A random power-basis vector of Q(zeta_n), held at order n even when it
    is rational: the constructor holds a rational at order 1, and
    change_order embeds it at n again."""
    n = draw(st.sampled_from([3, 4, 5, 7, 12]))
    size = euler_phi(n)
    return Cyclo(n, draw(st.lists(small_rationals, min_size=size, max_size=size))).change_order(n)


def cyclo_values():
    return st.one_of(root_values(), field_elements())


@settings(max_examples=60, deadline=None)
@given(cyclo_values(), cyclo_values(), cyclo_values())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a + (-a)).order == 1
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert (a * a.inverse()).order == 1


@settings(max_examples=80, deadline=None)
@given(small_rationals, field_elements())
def test_rational_operand_matches_common_order(q, x):
    # an order-1 operand skips change_order; the result must be the one
    # computed with both operands embedded in Q(zeta_n)
    n = x.order
    r = from_rational(q)
    rn = r.change_order(n)
    assert rn.order == n

    def at_n(v):
        return v.change_order(n).coeffs

    assert at_n(r + x) == at_n(x + r) == at_n(rn + x)
    assert at_n(r * x) == at_n(x * r) == at_n(rn * x)
    assert (x == r) == (r == x) == (x == q) == (x.coeffs == rn.coeffs)


def is_canonical(c):
    # an int, or a Fraction only when a division made one; 0.5 == Fraction(1, 2),
    # so equality-based tests would not notice a float
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@settings(max_examples=80, deadline=None)
@given(cyclo_values(), cyclo_values(), st.integers(min_value=1, max_value=12),
       st.sampled_from([2, 3]))
def test_coefficients_are_canonical(a, b, t, k):
    results = [a + b, a - b, a * b, a.conj(), a.change_order(k * a.order),
               Cyclo.from_json(a.to_json())]
    if not b.is_zero():
        results += [a / b, b.inverse()]
    if math.gcd(t, a.order) == 1:
        results.append(a.galois(t))
    for v in results:
        assert all(is_canonical(c) for c in v.coeffs), v.coeffs


# operands of `dot` as its callers pass them: ints, Fractions (the halves of
# dihedral-rot's cos and sin, check_all's lambdas r_j chi(g_j) / n) and Cyclo
# values at orders whose sums mix fields
DOT_ORDERS = [1, 3, 4, 5, 12, 15]
dot_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=10)
dot_coeffs = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3), dot_rationals)


@st.composite
def dot_operands(draw):
    kind = draw(st.sampled_from(["int", "fraction", "cyclo", "cyclo"]))
    if kind == "int":
        return draw(st.integers(min_value=-6, max_value=6))
    if kind == "fraction":
        return draw(dot_rationals)
    e = draw(st.sampled_from(DOT_ORDERS))
    coeffs = draw(st.lists(dot_coeffs, min_size=euler_phi(e), max_size=euler_phi(e)))
    return Cyclo(e, coeffs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(dot_operands(), dot_operands()), max_size=7), st.data())
def test_dot_is_the_sum_whatever_the_order_of_the_terms(pairs, data):
    total = Cyclo.zero()
    for x, y in pairs:
        total = total + x * y
    v = dot([x for x, _ in pairs], [y for _, y in pairs])
    assert v == total
    assert (v.order == 1) == v.is_rational()
    assert all(is_canonical(c) for c in v.coeffs), v.coeffs
    shuffled = data.draw(st.permutations(pairs))
    w = dot([x for x, _ in shuffled], [y for _, y in shuffled])
    assert (w.order, w.coeffs) == (v.order, v.coeffs)


CROSS_ORDERS = [1, 3, 4, 5, 7, 12, 15, 60]


@st.composite
def cross_order_values(draw):
    e = draw(st.sampled_from(CROSS_ORDERS))
    return Cyclo(e, draw(st.lists(dot_coeffs, min_size=euler_phi(e), max_size=euler_phi(e))))


@settings(max_examples=150, deadline=None)
@given(cross_order_values(), cross_order_values(), st.sampled_from(CROSS_ORDERS), st.booleans())
def test_operations_across_orders_match_the_common_order(x, y, e, same):
    # a product, sum or comparison of operands of different orders is one
    # `dot`; each must be the operation on both operands embedded at the lcm
    # of their orders, and hold the same order.  With `same`, y is x held
    # at a multiple of its order, so that == meets equal values
    if same:
        y = x.change_order(math.lcm(x.order, e))
    m = math.lcm(x.order, y.order)
    xm, ym = x.change_order(m), y.change_order(m)
    for op in (operator.mul, operator.add, operator.sub):
        got, expected = op(x, y), op(xm, ym)
        assert (got.order, got.nums, got.den) == (expected.order, expected.nums, expected.den)
    assert (x == y) == (y == x) == (xm == ym) == (x - y).is_zero()
    if same:
        assert x == y


@settings(max_examples=60, deadline=None)
@given(cyclo_values())
def test_conj_is_involution(a):
    assert a.conj().conj() == a


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=30),
       st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_galois_composition(e, k, t1, t2):
    if math.gcd(t1, e) != 1 or math.gcd(t2, e) != 1:
        return
    a = root_of_unity(e, k) + Fraction(1, 2)
    assert a.galois(t1).galois(t2) == a.galois((t1 * t2) % e)


@pytest.mark.parametrize("e", range(1, 13))
def test_root_sums(e):
    total = Cyclo.zero()
    for k in range(e):
        total = total + root_of_unity(e, k)
    assert total == (1 if e == 1 else 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=40))
def test_reduction_soundness(e, k):
    assert root_of_unity(e, k) ** e == 1


@settings(max_examples=40, deadline=None)
@given(cyclo_values(), cyclo_values())
def test_to_float_is_ring_hom(a, b):
    assert abs((a + b).to_float() - (a.to_float() + b.to_float())) < 1e-9
    assert abs((a * b).to_float() - (a.to_float() * b.to_float())) < 1e-9


# -- the int kernel against the Fraction algorithm ------------------------------

def fraction_reduce(e, coeffs):
    """Reduce modulo Phi_e with a Fraction operation per term, the way the
    reduction ran before products and reductions moved to int vectors."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    coeffs = [Fraction(c) for c in coeffs] + [Fraction(0)] * deg
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        for j in range(deg):
            coeffs[i - deg + j] -= c * phi[j]
    return coeffs[:deg]


def fraction_embed(x, m):
    raised = [0] * m
    for i, c in enumerate(x.coeffs):
        raised[i * (m // x.order)] = c
    return fraction_reduce(m, raised)


def assert_reduced(v, order, coeffs, drop_rational=True):
    """v is the value of Q(zeta_order) with reduced coefficients `coeffs`,
    held at order 1 when it is rational (unless drop_rational is False)."""
    if drop_rational and not any(coeffs[1:]):
        order, coeffs = 1, coeffs[:1]
    assert (v.order, v.coeffs) == (order, tuple(coeffs))
    assert all(is_canonical(c) for c in v.coeffs), v.coeffs


ORACLE_ORDERS = [1, 3, 4, 5, 7, 12, 20, 28, 36]
oracle_coeffs = st.one_of(
    st.just(0),
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@st.composite
def oracle_values(draw, orders=ORACLE_ORDERS):
    """A reduced vector of Q(zeta_e) with canonical coefficients, held at
    order e even when it is rational (by change_order, since the
    constructor holds a rational at order 1)."""
    e = draw(st.sampled_from(orders))
    size = euler_phi(e)
    coeffs = draw(st.lists(oracle_coeffs, min_size=size, max_size=size))
    return Cyclo(e, coeffs).change_order(e)


@settings(max_examples=150, deadline=None)
@given(oracle_values(), oracle_values())
def test_product_matches_fraction_oracle(x, y):
    m = math.lcm(x.order, y.order)
    expected = fraction_reduce(m, poly_mul(fraction_embed(x, m), fraction_embed(y, m)))
    assert_reduced(x * y, m, expected)


@settings(max_examples=80, deadline=None)
@given(oracle_values(), st.integers(min_value=1, max_value=3))
def test_change_order_matches_fraction_oracle(x, k):
    m = k * x.order
    assert_reduced(x.change_order(m), m, fraction_embed(x, m), drop_rational=False)


@settings(max_examples=80, deadline=None)
@given(oracle_values(), st.integers(min_value=1, max_value=72))
def test_galois_matches_fraction_oracle(x, s):
    e = x.order
    if math.gcd(s, e) != 1:
        return
    permuted = [0] * e
    for i, c in enumerate(x.coeffs):
        permuted[(i * s) % e] += c
    assert_reduced(x.galois(s), e, fraction_reduce(e, permuted))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORACLE_ORDERS), st.data())
def test_from_powers_matches_fraction_oracle(e, data):
    # the constructor reduces a sum of powers of any length, phi(e) or more
    coeffs = data.draw(st.lists(oracle_coeffs, max_size=3 * e))
    assert_reduced(Cyclo(e, coeffs), e, fraction_reduce(e, coeffs))


# orders whose lcm is at most 60, so that the oracle's Fraction products stay small
DOT_ORACLE_ORDERS = [1, 3, 4, 5, 12, 20]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(oracle_values(DOT_ORACLE_ORDERS), oracle_coeffs),
                          st.one_of(oracle_values(DOT_ORACLE_ORDERS), oracle_coeffs)),
                max_size=5))
def test_dot_matches_fraction_oracle(pairs):
    pairs = [(Cyclo._coerce(x), Cyclo._coerce(y)) for x, y in pairs]
    m = math.lcm(1, *(v.order for pair in pairs for v in pair))
    expected = [Fraction(0)] * euler_phi(m)
    for x, y in pairs:
        term = fraction_reduce(m, poly_mul(fraction_embed(x, m), fraction_embed(y, m)))
        expected = [a + b for a, b in zip(expected, term)]
    v = dot([x for x, _ in pairs], [y for _, y in pairs])
    assert m % v.order == 0
    assert_reduced(v.change_order(m), m, expected, drop_rational=False)



# -- the split form against dot and the Fraction oracle ---------------------------

SPLIT_ORDERS = [3, 4, 5, 12]  # held at these orders even when rational
split_ints = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30)).map(from_rational)
split_others = st.one_of(
    oracle_values(SPLIT_ORDERS),
    st.fractions(min_value=-5, max_value=5, max_denominator=9)
    .filter(lambda q: q.denominator > 1).map(from_rational),
)


@st.composite
def split_sequences(draw, n):
    """n values, all ints, all not ints (irrational, or held at an order
    above 1, or Fractions), ints with one other value, or a mix."""
    shape = draw(st.sampled_from(["ints", "others", "one-other", "mixed"]))
    if shape == "others":
        return [draw(split_others) for _ in range(n)]
    if shape == "mixed":
        return [draw(st.one_of(split_ints, split_others)) for _ in range(n)]
    values = [draw(split_ints) for _ in range(n)]
    if shape == "one-other" and n:
        values[draw(st.integers(min_value=0, max_value=n - 1))] = draw(split_others)
    return values


def assert_split_form(values):
    form = split(values)
    int_held = [v.order == v.den == 1 for v in values]
    assert form[0] is values
    assert form[1] == [v.nums[0] if held else 0 for v, held in zip(values, int_held)]
    assert form[2] == [i for i, held in enumerate(int_held) if not held]
    return form


def assert_split_dot_is_dot(xs, ys):
    v = split_dot(assert_split_form(xs), assert_split_form(ys))
    w = dot(xs, ys)
    assert (v.order, v.nums, v.den) == (w.order, w.nums, w.den)
    return v


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(split_sequences(n), split_sequences(n))))
def test_split_dot_matches_dot_and_the_fraction_oracle(pair):
    xs, ys = pair
    v = assert_split_dot_is_dot(xs, ys)
    m = math.lcm(1, *(v.order for v in xs + ys))
    expected = [Fraction(0)] * euler_phi(m)
    for x, y in zip(xs, ys):
        term = fraction_reduce(m, poly_mul(fraction_embed(x, m), fraction_embed(y, m)))
        expected = [a + b for a, b in zip(expected, term)]
    assert m % v.order == 0
    assert_reduced(v.change_order(m), m, expected, drop_rational=False)


def test_split_dot_on_fixed_mixes():
    # the seeded companion of the hypothesis test: the other values of each
    # operand at its own positions, at both, and at neither
    z3, z5, half = root_of_unity(3), root_of_unity(5), from_rational(Fraction(1, 2))
    n = [from_rational(k) for k in range(-2, 5)]
    cases = [
        ([n[3], n[4], n[0]], [n[5], n[1], n[6]], 1 * 3 + 2 * -1 + -2 * 4),
        ([n[3], z3, n[4]], [n[5], n[6], n[0]], 3 + 4 * z3 - 4),
        ([n[3], n[6], n[4]], [n[5], z5, half], 3 + 4 * z5 + 1),
        ([z3, n[6], half], [n[5], z5, z3], 3 * z3 + 4 * z5 + half * z3),
        ([n[2], z3, n[2]], [z5, n[2], n[2]], 0),
    ]
    for xs, ys, expected in cases:
        assert assert_split_dot_is_dot(xs, ys) == expected
        assert assert_split_dot_is_dot(ys, xs) == expected


def test_split_dot_refuses_operands_of_unequal_length():
    with pytest.raises(ValueError, match="length 2 and 3"):
        split_dot(split([Cyclo.one()] * 2), split([Cyclo.one()] * 3))

scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@settings(max_examples=150, deadline=None)
@given(scalars, oracle_values())
def test_scalar_product_matches_fraction_oracle(q, v):
    # an int or Fraction scalar scales the numerators and the denominator
    expected = [Fraction(q) * c for c in v.coeffs]
    for w in (q * v, v * q):
        assert_reduced(w, v.order, expected)
        assert_lowest_terms(w)


def assert_lowest_terms(v):
    """v holds int numerators over a positive int denominator in lowest
    terms, at order 1 exactly when it is rational."""
    assert type(v.den) is int and v.den > 0
    assert all(type(c) is int for c in v.nums)
    assert len(v.nums) == euler_phi(v.order)
    assert math.gcd(v.den, *v.nums) == 1, (v.nums, v.den)
    assert (v.order == 1) == v.is_rational()


@settings(max_examples=100, deadline=None)
@given(oracle_values(), oracle_values(), st.integers(min_value=1, max_value=72),
       st.lists(oracle_coeffs, max_size=40), st.data())
def test_results_are_held_in_lowest_terms(x, y, s, coeffs, data):
    pairs = data.draw(st.lists(st.tuples(oracle_values(), oracle_values()), max_size=4))
    results = [x + y, x - y, x * y, dot([x, y], [y, x]),
               dot([a for a, _ in pairs], [b for _, b in pairs]),
               Cyclo(x.order, coeffs)]
    if math.gcd(s, x.order) == 1:
        results.append(x.galois(s))
    for v in results:
        assert_lowest_terms(v)


# -- inverses against the extended Euclidean algorithm ---------------------------

def fraction_divmod(num, den):
    """Quotient and remainder of ascending Fraction coefficient lists."""
    num = [Fraction(c) for c in num]
    deg = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - deg, 1)
    for i in range(len(num) - 1, deg - 1, -1):
        c = quot[i - deg] = num[i] / den[-1]
        for j, d in enumerate(den):
            num[i - deg + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def poly_sub(a, b):
    n = max(len(a), len(b))
    return [x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def euclid_inverse(x):
    """x^-1 by the extended Euclidean algorithm on x and Phi_e over Fraction
    polynomials, as `Cyclo.inverse` computed it before it used the Galois
    norm; Phi_e is irreducible, so the gcd is a nonzero constant."""
    a = list(x.coeffs)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    r0, r1 = list(cyclotomic_polynomial(x.order)), a
    s0, s1 = [0], [1]
    while any(r1):
        q, r = fraction_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    return Cyclo(x.order, [Fraction(c) / r0[-1] for c in s0])


# the orders up to 60 of degree phi(e) <= 20: at a prime order near 60 the
# Euclidean oracle takes seconds per value (Fraction coefficients of hundreds
# of digits), the Galois norm under 0.1 s
INVERSE_ORDERS = [e for e in range(1, 61) if euler_phi(e) <= 20]


@settings(max_examples=120, deadline=None)
@given(oracle_values(INVERSE_ORDERS), oracle_values(INVERSE_ORDERS))
def test_inverse_matches_euclid_oracle(x, y):
    if x.is_zero():
        return
    inv = euclid_inverse(x)
    assert x.inverse().to_json() == inv.to_json()
    assert (y / x).to_json() == (y * inv).to_json()
    assert (x ** -2).to_json() == (inv * inv).to_json()
    assert (1 / x).to_json() == inv.to_json()
    assert_lowest_terms(x.inverse())


HALF = Fraction(1, 2)


@pytest.mark.parametrize("e, powers", [
    (420, [0, 1]), (420, [1, 1]), (420, [HALF, 0, 0, HALF]),
    (420, [-2, 0, 0, 0, 0, 0, 0, Fraction(1, 3)]),
    (997, [0, 1]), (997, [1, 1]), (997, [HALF, 0, 0, HALF]),
], ids=["420-z", "420-1+z", "420-(1+z^3)/2", "420-z^7/3-2",
        "997-z", "997-1+z", "997-(1+z^3)/2"])
def test_sparse_inverse_at_large_orders(e, powers):
    # sums of a few roots of unity, the values the library most naturally
    # makes: the Euclidean oracle is quick on them, since Phi_e divided by a
    # low-degree polynomial leaves a constant or a short remainder (at 997
    # only units, whose inverses have small coefficients)
    x = Cyclo(e, powers)
    inv = euclid_inverse(x)
    assert x.inverse().to_json() == inv.to_json()
    assert (1 / x).to_json() == inv.to_json()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2000), st.sampled_from([3, 12, 41, 105]), st.data())
def test_packed_products_match_the_double_loop(bits, e, data):
    ints = st.integers(min_value=-(1 << bits), max_value=1 << bits)
    a = data.draw(st.lists(ints, min_size=1, max_size=130))
    b = data.draw(st.lists(ints, min_size=1, max_size=130))
    assert cyclo._packed_mul(a, b) == poly_mul(a, b)
    # a product of two values is one `dot`, which packs only products with
    # many steps a coefficient, so make it with packing forced and with none
    expected = Cyclo(e, poly_mul(a, b)).to_json()
    for steps in (0, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cyclo, "_PACK_STEPS", steps)
            assert (Cyclo(e, a) * Cyclo(e, b)).to_json() == expected


@st.composite
def dense_values(draw, e):
    """A value of Q(zeta_e) with no zero coefficient, over a drawn denominator."""
    den = draw(st.integers(min_value=1, max_value=9))
    nums = draw(st.lists(st.integers(min_value=-50, max_value=50).filter(bool),
                         min_size=euler_phi(e), max_size=euler_phi(e)))
    return Cyclo(e, [Fraction(c, den) for c in nums])


def assert_dense_terms_packed(e, dense_xs, dense_ys):
    n = len(dense_xs)
    xs = [root_of_unity(4)] + dense_xs + [Fraction(2, 3), root_of_unity(5)]
    ys = [Fraction(1, 7)] + dense_ys + [root_of_unity(e), root_of_unity(3)]
    packed = []
    real = cyclo._packed_mul

    def spy(a, b):
        packed.append((len(a), len(b)))
        return real(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cyclo, "_packed_mul", spy)
        fast = dot(xs, ys)
        patch.setattr(cyclo, "_PACK_STEPS", 10**9)
        slow = dot(xs, ys)
    assert packed == [(euler_phi(e), euler_phi(e))] * n
    assert fast.to_json() == slow.to_json()
    assert fast == sum((x * y for x, y in zip(xs, ys)), Cyclo.zero())


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([41, 97, 105]), st.data())
def test_dot_packs_dense_terms_of_one_order(e, data):
    # a dense product of two values of one order is made packed, by the
    # rule of `_poly_mul`, and folded into a buffer that already holds an
    # order-4 term, at stride lcm(4, e) // e; the sum is the one the double
    # loop gives, with terms of other orders mixed in
    n = data.draw(st.integers(min_value=1, max_value=3))
    assert_dense_terms_packed(e, [data.draw(dense_values(e)) for _ in range(n)],
                              [data.draw(dense_values(e)) for _ in range(n)])


@pytest.mark.parametrize("e", [41, 97, 105])
def test_dot_packs_seeded_dense_terms_of_one_order(e):
    # the test above on three seeded pairs of dense values: a failure is
    # reported in well under a second, where hypothesis shrinks for minutes
    rng = random.Random(e)

    def dense():
        den = rng.randint(1, 9)
        return Cyclo(e, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), den)
                         for _ in range(euler_phi(e))])

    assert_dense_terms_packed(e, [dense() for _ in range(3)], [dense() for _ in range(3)])


RING_ORDERS = [1, 4, 5, 12, 15]


def one_norm(v):
    return sum(map(abs, v.nums))


class TestKroneckerResidues:
    """The ring map zeta_L -> x = 2^W of Z[zeta_L] onto Z/M, M = |Phi_L(x)|."""

    @pytest.mark.parametrize("e", RING_ORDERS)
    def test_the_modulus_is_phi_at_two_to_the_w(self, e):
        bound = 1000
        x = 2 ** (bound.bit_length() + 2)
        modulus, _, _, _, _, _ = kronecker_residues([root_of_unity(e)], lambda a, d, n: bound)
        assert modulus == abs(sum(c * x**i for i, c in enumerate(cyclotomic_polynomial(e))))

    @pytest.mark.parametrize("e", RING_ORDERS)
    def test_a_nonzero_difference_under_the_limit_maps_to_a_nonzero_residue(self, e):
        # 1-norms below 2^W - 1: differences of two roots, 1-norm at most
        # 2 phi(L), and zeta^k - (x - 3) for zeta^k in the power basis,
        # 1-norm x - 2, each nonzero.  At the limit the map is not
        # injective: zeta - x maps to 0, and so does x - 1 at L = 1
        bound = 1000
        x = 2 ** (bound.bit_length() + 2)
        near = [root_of_unity(e, k) - (x - 3) for k in range(euler_phi(e))]
        small = [root_of_unity(e, k) - 1 for k in range(1, e)]
        limit = [root_of_unity(e) - x] if e > 1 else [from_rational(x - 1)]
        assert all(one_norm(v) < x - 1 for v in near + small)
        _, _, _, _, images, _ = kronecker_residues(near + small + limit, lambda a, d, n: bound)
        assert all(images[:-1])
        assert images[-1] == 0

    @pytest.mark.parametrize("e", RING_ORDERS)
    def test_a_value_plus_the_modulus_is_told_apart(self, e):
        # the bound grows with the values, so the modulus does too: a value
        # plus the modulus chosen without it maps apart from the value
        values = [root_of_unity(e, k) + k for k in range(e)]

        def bound(vals):
            return 2 * max(map(one_norm, vals))

        modulus, _, _, _, _, _ = kronecker_residues(values, lambda a, d, n: bound(values))
        shifted = values + [values[-1] + modulus]
        _, _, _, _, images, _ = kronecker_residues(shifted, lambda a, d, n: bound(shifted))
        assert images[-1] != images[-2]

    @pytest.mark.parametrize("e", RING_ORDERS)
    def test_the_map_is_a_ring_map_with_conjugates_at_two_to_the_minus_w(self, e):
        values = [root_of_unity(e, k) - 2 * root_of_unity(e, 2 * k + 1) + k for k in range(e)]
        pairs = [(a, b) for a in values for b in values]
        bound = max(one_norm(a) * one_norm(b) for a, b in pairs)
        sums = [a + b for a, b in pairs]
        products = [a * b for a, b in pairs]
        conj = [v.conj() for v in values]
        modulus, _, _, _, images, conjugates = kronecker_residues(
            values + sums + products + conj, lambda a, d, n: bound)
        n, k = len(values), len(pairs)
        image, sum_image = images[:n], images[n:n + k]
        product_image, conj_image = images[n + k:n + 2 * k], images[n + 2 * k:]
        for (i, j), s, p in zip([(i, j) for i in range(n) for j in range(n)],
                                sum_image, product_image):
            assert s == (image[i] + image[j]) % modulus
            assert p == image[i] * image[j] % modulus
        assert conjugates[:n] == conj_image
        if e > 2:
            assert conjugates[:n] != image

    def test_values_are_scaled_by_the_lcm_of_their_denominators(self):
        # D = 6: 1/2 maps to 3 and 1/3 to 2, and zeta_4 / 2 to 3 x.  1/2 and
        # 1/3 differ only in den, and the D-scaled values have largest
        # 1-norm A = 3, which the bound receives with D and n = phi(4) = 2
        bound = 100
        x = 2 ** (bound.bit_length() + 2)
        values = [from_rational(Fraction(1, 2)), from_rational(Fraction(1, 3)),
                  root_of_unity(4) * Fraction(1, 2)]
        seen = []

        def bound_of(a, d, n):
            seen.append((a, d, n))
            return bound

        modulus, scale, b, n, images, conjugates = kronecker_residues(values, bound_of)
        assert modulus == x * x + 1
        assert images == [3, 2, 3 * x]
        assert conjugates == [3, 2, modulus - 3 * x]
        assert seen == [(3, 6, 2)]
        assert (scale, b, n) == (6, bound, 2)

    @pytest.mark.parametrize("e", RING_ORDERS)
    def test_equal_values_held_as_distinct_objects_share_residues(self, e):
        # each distinct held form is mapped once, and its residues go back to
        # every input that holds it, in input order
        def made():
            return [root_of_unity(e, 1) + 2, from_rational(Fraction(1, 2)),
                    root_of_unity(e, e - 1) - 3]

        first, second = made(), made()
        assert first == second and not any(map(operator.is_, first, second))
        _, _, _, _, images, conjugates = kronecker_residues(first, lambda a, d, n: 100)
        assert len(set(images)) == 3
        picks = [(1, second), (0, first), (2, second), (0, second), (1, first), (2, first)]
        ring = kronecker_residues([vals[i] for i, vals in picks], lambda a, d, n: 100)
        assert ring[4] == [images[i] for i, _ in picks]
        assert ring[5] == [conjugates[i] for i, _ in picks]
