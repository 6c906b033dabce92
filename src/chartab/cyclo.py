"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Values are kept as coordinate vectors over the power basis
1, z, ..., z^(phi(e)-1) where z = zeta_e, reduced modulo the e-th cyclotomic
polynomial.  The reduced form is unique, so equality is coefficient equality
(after embedding both operands into the lcm order when the orders differ).
A coefficient is an `int`, or a `Fraction` whose denominator is greater than
1: character values are algebraic integers, so their arithmetic stays in
ints, and a `Fraction` appears only where a division makes one.  `_coeff`
decides this for every value the module hands out.
Arithmetic returns a rational result at order 1, and an order-1 operand acts
on the other operand's coefficient vector directly, so rational values never
pay for the coefficient vector of a large field.
No floating point is used anywhere except `to_float`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

MAX_ORDER = 10_000

RationalLike = Union[int, Fraction]


class CycloError(ValueError):
    """Bad cyclotomic operation (order out of range, irrational descent, ...)."""


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod(num: Sequence[RationalLike], den: Sequence[RationalLike]):
    """Quotient and remainder of ascending coefficient lists; den[-1] != 0.

    A quotient term is Fraction(c, lead), never c / lead, so the division is
    exact, and integer polynomials divided by a monic den stay integer.
    """
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - deg_d, 1)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        if lead != 1:
            c = Fraction(c, lead)
        quot[i - deg_d] = c
        for j, dj in enumerate(den):
            num[i - deg_d + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e, ascending degree, computed by dividing
    x^e - 1 by Phi_d for every proper divisor d of e."""
    if not 1 <= e <= MAX_ORDER:
        raise CycloError(f"cyclotomic order {e} outside [1, {MAX_ORDER}]")
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    for d in _divisors(e):
        if d == e:
            continue
        num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
        assert rem == [0], f"Phi_{d} does not divide x^{e}-1"
    return tuple(num)


def _reduce(e: int, coeffs: Sequence[RationalLike]) -> tuple[RationalLike, ...]:
    """Reduce a polynomial in zeta_e modulo Phi_e to the power basis.  Phi_e
    is monic with integer coefficients, so integer input gives integer output."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        for j in range(deg):
            coeffs[i - deg + j] -= c * phi[j]
    return tuple(coeffs[:deg]) + (0,) * (deg - len(coeffs))


class Cyclo:
    """An element of Q(zeta_e) in reduced power-basis form.

    `coeffs` holds phi(e) coefficients, each an `int` or a `Fraction` whose
    denominator is greater than 1.  Construct via `from_rational`,
    `root_of_unity`, `from_powers`, or arithmetic on those; the raw
    constructor expects already-reduced coefficients in that form and keeps
    the order it is given.
    """

    __slots__ = ("order", "coeffs")
    __hash__ = None  # equality crosses field orders; keep values unhashable

    def __init__(self, order: int, coeffs: Sequence[RationalLike]):
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q: RationalLike) -> "Cyclo":
        return Cyclo(1, (_coeff(Fraction(q)),))

    @staticmethod
    def from_powers(order: int, coeffs: Sequence[RationalLike]) -> "Cyclo":
        """sum_k coeffs[k] zeta_order^k, reduced; a rational sum has order 1."""
        return _rational_or(order, _reduce(order, coeffs))

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo.from_rational(0)

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo.from_rational(1)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(value: "Cyclo | RationalLike") -> "Cyclo":
        if isinstance(value, Cyclo):
            return value
        return Cyclo.from_rational(value)

    def change_order(self, new_order: int) -> "Cyclo":
        """Re-embed into Q(zeta_new_order); current order must divide it."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise CycloError(
                f"cannot embed order {self.order} into non-multiple {new_order}"
            )
        if not 1 <= new_order <= MAX_ORDER:
            raise CycloError(f"cyclotomic order {new_order} outside [1, {MAX_ORDER}]")
        step = new_order // self.order
        raised = [0] * new_order
        for i, c in enumerate(self.coeffs):
            raised[i * step] = c
        return Cyclo(new_order, tuple(map(_coeff, _reduce(new_order, raised))))

    def _match(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.change_order(m), other.change_order(m)

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        a, b = _rational_last(self, Cyclo._coerce(other))
        if b.order == 1:
            return _rational_or(a.order, (a.coeffs[0] + b.coeffs[0],) + a.coeffs[1:])
        a, b = a._match(b)
        return _rational_or(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other):
        return Cyclo._coerce(other) - self

    def __mul__(self, other):
        a, b = _rational_last(self, Cyclo._coerce(other))
        if b.order == 1:
            q = b.coeffs[0]
            return _rational_or(a.order, tuple(q * c for c in a.coeffs))
        a, b = a._match(b)
        return _rational_or(a.order, _reduce(a.order, _poly_mul(a.coeffs, b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse via the extended Euclidean algorithm modulo Phi_e."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        a = list(self.coeffs)
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        # extended gcd of a and Phi_e in Q[x]; Phi_e irreducible => gcd is 1
        r0, r1 = cyclotomic_polynomial(self.order), a
        s0, s1 = [0], [1]
        while any(c != 0 for c in r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = r0[-1]
        return Cyclo.from_powers(self.order, [Fraction(c, lead) for c in s0])

    def __truediv__(self, other):
        other = Cyclo._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Cyclo":
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclo.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- Galois action -------------------------------------------------------

    def galois(self, t: int) -> "Cyclo":
        """Apply the automorphism zeta -> zeta^t; t must be coprime to the order."""
        e = self.order
        if math.gcd(t, e) != 1:
            raise CycloError(f"galois exponent {t} not coprime to order {e}")
        out = [0] * e
        for i, c in enumerate(self.coeffs):
            out[(i * t) % e] += c
        return Cyclo.from_powers(e, out)

    def conj(self) -> "Cyclo":
        """Complex conjugation, zeta -> zeta^(e-1)."""
        if self.order == 1:
            return self
        return self.galois(self.order - 1)

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> RationalLike:
        """The value as an `int` when it is an integer, else as a `Fraction`."""
        if not self.is_rational():
            raise CycloError(f"{self} is not rational")
        return self.coeffs[0]

    def to_float(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for i in reversed(range(len(self.coeffs))):
            total = total * z + complex(self.coeffs[i])
        return total

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        elif not isinstance(other, Cyclo):
            return NotImplemented
        a, b = _rational_last(self, other)
        if b.order == 1:
            return a.is_rational() and a.coeffs[0] == b.coeffs[0]
        a, b = a._match(b)
        return a.coeffs == b.coeffs

    # -- rendering -------------------------------------------------------------

    def exact_str(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z({self.order})^{i}")
            elif c == -1:
                terms.append(f"-z({self.order})^{i}")
            else:
                terms.append(f"{c}*z({self.order})^{i}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def approx_str(self, places: int = 4) -> str:
        v = self.to_float()
        re, im = round(v.real, places), round(v.imag, places)
        re += 0.0  # avoid -0.0
        im += 0.0
        if im == 0:
            return f"{re:.{places}f}"
        sign = "+" if im >= 0 else "-"
        return f"{re:.{places}f}{sign}{abs(im):.{places}f}i"

    def __str__(self) -> str:
        return f"{self.exact_str()} ~ {self.approx_str()}"

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {self.exact_str()!r})"

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "Cyclo":
        order = int(data["order"])
        coeffs = [_coeff(Fraction(s)) for s in data["coeffs"]]
        if len(coeffs) != euler_phi(order):
            raise CycloError("coefficient vector length does not match phi(order)")
        return Cyclo(order, coeffs)


def _coeff(q: RationalLike) -> RationalLike:
    """The canonical form of a coefficient: an int, or a Fraction whose
    denominator is greater than 1."""
    return q.numerator if q.denominator == 1 else q


def _rational_or(order: int, coeffs: Sequence[RationalLike]) -> Cyclo:
    """The reduced vector `coeffs` of Q(zeta_order) as a Cyclo with canonical
    coefficients, at order 1 when the value is rational."""
    coeffs = tuple(map(_coeff, coeffs))
    if order != 1 and not any(coeffs[1:]):
        return Cyclo(1, coeffs[:1])
    return Cyclo(order, coeffs)


def _rational_last(a: Cyclo, b: Cyclo) -> tuple[Cyclo, Cyclo]:
    """The operands of a symmetric operation, an order-1 one (if any) last,
    so that it can act on the other's coefficients without change_order."""
    return (b, a) if a.order == 1 else (a, b)


def _poly_mul(a: Sequence[RationalLike], b: Sequence[RationalLike]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return out


def _poly_sub(a: list[RationalLike], b: list[RationalLike]) -> list[RationalLike]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def root_of_unity(e: int, k: int = 1) -> Cyclo:
    """zeta_e^k as an exact value of Q(zeta_e)."""
    if e < 1:
        raise CycloError(f"root-of-unity order {e} must be >= 1")
    if e > MAX_ORDER:
        raise CycloError(f"cyclotomic order {e} outside [1, {MAX_ORDER}]")
    k %= e
    mono = [0] * (k + 1)
    mono[k] = 1
    return Cyclo(e, _reduce(e, mono))


def from_rational(q: RationalLike) -> Cyclo:
    return Cyclo.from_rational(q)
