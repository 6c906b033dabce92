import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartab.cyclo import (
    Cyclo,
    CycloError,
    cyclotomic_polynomial,
    euler_phi,
    from_rational,
    root_of_unity,
)


def poly_mul_int(a, b):
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

    @pytest.mark.parametrize("e", [12, 30, 60])
    def test_product_over_divisors(self, e):
        # oracle: multiplying Phi_d over all d | e recovers x^e - 1
        prod = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                prod = poly_mul_int(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (e + 1)
        expected[0], expected[e] = -1, 1
        assert prod == expected

    def test_out_of_range(self):
        with pytest.raises(CycloError):
            cyclotomic_polynomial(0)
        with pytest.raises(CycloError):
            cyclotomic_polynomial(10_001)


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

    def test_mixed_order_arithmetic(self):
        # zeta_2 + zeta_3 lands in Q(zeta_6)
        v = root_of_unity(2, 1) + root_of_unity(3, 1)
        assert v.order == 6
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
    """A random power-basis vector of Q(zeta_n), kept at order n by the raw
    constructor even when it is rational."""
    n = draw(st.sampled_from([3, 4, 5, 7, 12]))
    size = euler_phi(n)
    return Cyclo(n, draw(st.lists(small_rationals, min_size=size, max_size=size)))


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
