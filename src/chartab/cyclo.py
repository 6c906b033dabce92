"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is held as int numerators over one positive denominator: nums[i]
/ den is its coordinate on z^i, z = zeta_e, in the power basis 1, z, ...,
z^(phi(e)-1) modulo the e-th cyclotomic polynomial, and gcd(den, *nums)
is 1.  That form is unique, so equality at one order is equality of
(nums, den); across orders it is a zero difference.  The
power basis is an integral basis of Z[zeta_e], and character values are
algebraic integers, so a character value has den 1; a denominator greater
than 1 appears only where a division makes one.
`Cyclo(order, coeffs)` is the one constructor that takes coefficients: it
reduces sum_k coeffs[k] z^k modulo Phi_e, keeps lowest terms and holds a
rational value at order 1, so equal values built from any coefficient list
are held alike.
Sums, products, reductions modulo Phi_e, Galois images, `dot` and inverses
all work on the numerators directly.  An inverse is the product of the
other Galois conjugates divided by the rational norm, so a `Fraction`
appears only in `coeffs`, in constructor input and as the scalar 1/N(a).
`coeffs` derives the canonical coefficient tuple (each an `int`, or a
`Fraction` whose denominator is greater than 1) that rendering and JSON
print.  `dot` is the one product kernel: every product of two irrational
values, and every sum, difference or comparison of irrational values of
different orders, is one `dot`, which collects a sum of products in one
int vector, makes no `Cyclo` per term and one `Cyclo` per call.  Every sum,
whether `+`, `dot` or a cyclic transform (`_root_sums`), is held by one
rule: at order 1 when it is rational, else at the lcm of its terms' orders,
which `dot` grows as terms bring new orders.  A sequence of values that
is paired often is split once (`split`) into its int parts and the
positions of its other values; `split_dot` pairs two such forms with one
C-level int sum and one `dot` over the other positions, so a pairing of
integer-valued characters makes no `Cyclo` per term.  `kronecker_residues` maps
values into Z/M by zeta_L -> 2^W, with M chosen from the bound its caller
(`check_all`, `reps`) states, so the sums they test map to 0 only when they
are 0; `kronecker_window` reads a residue as n base-2^W digits, for the
range test of `reps`.
Arithmetic returns a rational result at order 1, and an order-1 operand, or
an `int` or `Fraction` scalar, scales the other operand's numerators and
denominator directly, so rational values never pay for the coefficient
vector of a large field.
No floating point is used anywhere except `to_float`: a float, or any other
operand that is not an `int`, a `Fraction` or a `Cyclo`, raises `CycloError`
rather than entering as its binary fraction.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Sequence, Union

from ._modp import factorize

MAX_ORDER = 10_000
# `_phi_terms` keeps the reduction stages for this many orders, the most
# recently used: a workload meets few orders (the gated benchmark workloads
# 3 and 13), and an entry at a prime order near MAX_ORDER holds about 10^4
# terms, about 0.6 MB
PHI_CACHE_SIZE = 32

RationalLike = Union[int, Fraction]


class CycloError(ValueError):
    """Bad cyclotomic operation (order out of range, irrational descent, ...)."""


def euler_phi(n: int) -> int:
    """phi(n) = n prod(1 - 1/p) over the primes p dividing n."""
    for p in factorize(n):
        n -= n // p
    return n


def _check_order(order) -> None:
    """Raise `CycloError` unless order is an `int` in [1, MAX_ORDER]."""
    if type(order) is not int:  # not a bool, a float or a string
        raise CycloError(f"cyclotomic order {order!r} is not an int")
    if not 1 <= order <= MAX_ORDER:
        raise CycloError(f"cyclotomic order {order} outside [1, {MAX_ORDER}]")


def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e, ascending degree: the product of
    (1 - x^(e/m))^mu(m) over the squarefree divisors m of e, taken as a
    power series to degree phi(e), negated at e = 1.  Multiplying by
    1 - x^k is one pass over the coefficients, and so is dividing by it,
    which multiplies by the series sum_j x^(jk)."""
    _check_order(e)
    deg = euler_phi(e)
    phi = [1] + [0] * deg
    plus, minus = [e], []  # e / m over the squarefree m | e, by the sign of mu(m)
    for p in factorize(e):
        plus, minus = plus + [k // p for k in minus], minus + [k // p for k in plus]
    for k in plus:  # times 1 - x^k
        for i in range(deg, k - 1, -1):
            phi[i] -= phi[i - k]
    for k in minus:  # divided by 1 - x^k
        for i in range(k, deg + 1):
            phi[i] += phi[i - k]
    return tuple(phi) if e > 1 else (-1, 1)  # Phi_1 = x - 1 = -(1 - x)


@lru_cache(maxsize=PHI_CACHE_SIZE)
def _phi_terms(e: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The stages of `_reduce`: for q = 1, p_1, p_1 p_2, ..., rad(e), p_1 <
    p_2 < ... the primes of e, the degree d of Phi_q(x^(e/q)) and its nonzero
    terms (j, c) below x^d.  Phi_e divides each, as zeta_e^(e/q) is a
    primitive q-th root of unity, and is the last."""
    _check_order(e)
    stages, q = [], 1
    for p in (1, *factorize(e)):
        q *= p
        phi, s = cyclotomic_polynomial(q), e // q
        terms = tuple((j * s, c) for j, c in enumerate(phi[:-1]) if c)
        stages.append(((len(phi) - 1) * s, terms))
    return tuple(stages)


def _integral(coeffs: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Rational coefficients as ints over one common denominator: (ints, den),
    with den the lcm of their denominators and coeffs[i] == ints[i] / den.
    Only the constructor `Cyclo(order, coeffs)` calls it; arithmetic reads
    `nums` and `den` directly.  A coefficient that is not an `int` (a `bool`
    included) or a `Fraction`, a float above all, raises `CycloError`."""
    if all(type(c) is int for c in coeffs):
        return list(coeffs), 1
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise _inexact(c)
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce(e: int, nums: list[int]) -> tuple[int, ...]:
    """The phi(e) power-basis coordinates of the int polynomial
    sum_i nums[i] z^i in z = zeta_e, reduced modulo Phi_e in place.

    It divides by Phi_q(x^(e/q)) for q = 1, p_1, p_1 p_2, ..., rad(e) in turn
    (`_phi_terms`), each monic with integer coefficients, so every step stays
    in ints and subtracts only its nonzero terms.  The first, x^e - 1, wraps
    the exponents of e and above, so a product at a prime order leaves one
    power to reduce rather than phi(e) - 1; at e = 420 the sparse x^210 + 1,
    x^140 - x^70 + 1 and Phi_30(x^14) take 420 powers down to 112 before 16
    meet the 32 terms of Phi_420 = Phi_210(x^2)."""
    for deg, terms in _phi_terms(e):
        for i in range(len(nums) - 1, deg - 1, -1):
            c = nums[i]
            if c:
                for j, p in terms:
                    nums[i - deg + j] -= c * p
        del nums[deg:]
    if len(nums) < deg:
        nums += [0] * (deg - len(nums))
    return tuple(nums)


def _held(order: int, nums: tuple[int, ...], den: int) -> "Cyclo":
    """A Cyclo of exactly these fields, which must already be in lowest terms."""
    v = object.__new__(Cyclo)
    v.order, v.nums, v.den = order, nums, den
    return v


def _value(order: int, nums: tuple[int, ...], den: int = 1) -> "Cyclo":
    """The reduced vector nums / den of Q(zeta_order), den > 0, in lowest
    terms, and at order 1 when the value is rational."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
    if order != 1 and not any(nums[1:]):
        return _held(1, nums[:1], den)
    return _held(order, nums, den)


class Cyclo:
    """An element of Q(zeta_e) in reduced power-basis form.

    `nums` holds phi(e) int numerators over the positive int `den`, in lowest
    terms; `coeffs` is the same vector with canonical coefficients, each an
    `int` or a `Fraction` whose denominator is greater than 1.

    `Cyclo(order, coeffs)` is the value sum_k coeffs[k] zeta_order^k, for any
    number of `int` or `Fraction` coefficients, in its canonical form:
    reduced modulo Phi_order, in lowest terms, and held at order 1 when it is
    rational, so two equal values have equal fields at equal orders.  An
    order that is not an `int` in [1, MAX_ORDER] raises `CycloError`.
    `from_rational`, `root_of_unity` and arithmetic give the same form.
    """

    __slots__ = ("order", "nums", "den")
    __hash__ = None  # equality crosses field orders; keep values unhashable

    def __new__(cls, order: int, coeffs: Sequence[RationalLike]):
        nums, den = _integral(coeffs)
        # _reduce reads Phi_order, and cyclotomic_polynomial checks the order
        return _value(order, _reduce(order, nums), den)

    def __getnewargs__(self):  # so that copy and pickle rebuild through __new__
        return self.order, self.coeffs

    @property
    def coeffs(self) -> tuple[RationalLike, ...]:
        """The coordinates as an `int`, or a `Fraction` when not an integer."""
        den = self.den
        if den == 1:
            return self.nums
        return tuple(c // den if c % den == 0 else Fraction(c, den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q: RationalLike) -> "Cyclo":
        """q held at order 1; q is an `int` (a `bool` included) or a
        `Fraction`, whose terms are already lowest, and anything else, a
        float above all, raises `CycloError`."""
        if type(q) is int:
            return _held(1, (q,), 1)
        if isinstance(q, (int, Fraction)):
            return _held(1, (q.numerator,), q.denominator)
        raise _inexact(q)

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
        _check_order(new_order)
        step = new_order // self.order
        raised = [0] * new_order
        raised[:len(self.nums) * step:step] = self.nums
        # Z[zeta_new] meets Q(zeta_order) in Z[zeta_order], so the lowest
        # denominator stays the same
        return _held(new_order, _reduce(new_order, raised), self.den)

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        a, b = _rational_last(self, Cyclo._coerce(other))
        if b.order not in (1, a.order):
            return dot((a, b), (1, 1))
        den = a.den if a.den == b.den else math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        if b.order == 1:
            nums = [c * fa for c in a.nums] if fa != 1 else list(a.nums)
            nums[0] += b.nums[0] * fb
            return _value(a.order, tuple(nums), den)
        return _value(a.order, tuple(x * fa + y * fb for x, y in zip(a.nums, b.nums)), den)

    __radd__ = __add__

    def __neg__(self):
        return _held(self.order, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other):
        return Cyclo._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            if self.order != 1 != other.order:
                return dot((self,), (other,))
            a, b = _rational_last(self, other)
            q, d = b.nums[0], b.den
        elif isinstance(other, (int, Fraction)):
            a, q, d = self, other.numerator, other.denominator
        else:
            raise _inexact(other)
        return _value(a.order, tuple(q * c for c in a.nums), a.den * d)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse by the Galois norm: a^-1 = C / N(a), where C is the
        product of the conjugates sigma_t(a), t in (Z/e)^* other than 1, and
        N(a) = a C is rational.

        c is that product over a subgroup H, 1 left out, so b = a c is the
        product over all of H; H starts at {1} and ends at (Z/e)^*, where c
        is C.  A t outside H whose first power back in H is t^m extends H to
        the cosets t^j H, j < m, and c by sigma_t(P_(m-1)), where P_k = b
        sigma_t(b) ... sigma_t^(k-1)(b) is formed by doubling: P_2k = P_k
        sigma_t^k(P_k) and P_(k+1) = b sigma_t(P_k).  H at least doubles
        each time, so C takes O(log phi(e)) products and Galois images, all
        on int numerators, then one rational scalar 1/N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        e = self.order
        c, group = Cyclo.one(), {1}
        for t in range(2, e):
            if t in group or math.gcd(t, e) != 1:
                continue
            powers = [1, t]  # t^j for j < m
            while (s := powers[-1] * t % e) not in group:
                powers.append(s)
            b = self * c
            p, k = b, 1
            for bit in bin(len(powers) - 1)[3:]:
                p, k = p * p.galois(powers[k]), 2 * k
                if bit == "1":
                    p, k = b * p.galois(t), k + 1
            c = c * p.galois(t)
            group = {h * u % e for h in group for u in powers}
        return c * (1 / Fraction((self * c).as_rational()))

    def __truediv__(self, other):
        other = Cyclo._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Cyclo":
        if not isinstance(n, int):  # a float or a Fraction power is not exact
            raise CycloError(f"exponent {n!r} is not an int")
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclo.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square past the top bit
                base = base * base
        return result

    # -- Galois action -------------------------------------------------------

    def galois(self, t: int) -> "Cyclo":
        """Apply the automorphism zeta -> zeta^t; t must be coprime to the order."""
        if not isinstance(t, int):
            raise CycloError(f"galois exponent {t!r} is not an int")
        e = self.order
        if math.gcd(t, e) != 1:
            raise CycloError(f"galois exponent {t} not coprime to order {e}")
        out = [0] * e
        for i, c in enumerate(self.nums):
            out[i * t % e] = c  # i -> i t is injective mod e
        return _value(e, _reduce(e, out), self.den)

    def conj(self) -> "Cyclo":
        """Complex conjugation, zeta -> zeta^(e-1)."""
        if self.order == 1:
            return self
        return self.galois(self.order - 1)

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> RationalLike:
        """The value as an `int` when it is an integer, else as a `Fraction`."""
        if not self.is_rational():
            raise CycloError(f"{self} is not rational")
        return self.nums[0] if self.den == 1 else Fraction(self.nums[0], self.den)

    def to_float(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        coeffs = self.coeffs
        for i in reversed(range(len(coeffs))):
            total = total * z + complex(coeffs[i])
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclo):
            if not isinstance(other, (int, Fraction)):
                if isinstance(other, (float, complex)):
                    raise _inexact(other)
                return NotImplemented
            other = Cyclo.from_rational(other)
        a, b = _rational_last(self, other)
        if b.order == 1:
            return a.den == b.den and a.nums[0] == b.nums[0] and a.is_rational()
        if a.order != b.order:
            return dot((a, b), (1, -1)).is_zero()
        return a.den == b.den and a.nums == b.nums

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
        """The value to `places` decimals; a part past the float range
        shows as inf or -inf."""
        try:
            v = self.to_float()
        except OverflowError:  # a coefficient past the float range
            # the value times 2^-k, k the bits of its largest coefficient,
            # each part scaled back by 2^k; a part within the rounding of
            # the whole is 0, not an infinity
            k = max(n.bit_length() for n in map(abs, self.nums)) - self.den.bit_length()
            v = Cyclo(self.order, [Fraction(n, self.den << k) for n in self.nums]).to_float()
            v = complex(*(_ldexp(x, k) if abs(x) > abs(v) * 2.0 ** -40 else 0.0
                          for x in (v.real, v.imag)))
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
        """The value `to_json` wrote: an int order and a list of phi(order)
        coefficients, each an int or a string such as "-2/3"; anything else
        raises `CycloError`.  It returns the canonical form, as the
        constructor does, so a rational value reads back at order 1 whatever
        order its input names."""
        if not isinstance(data, Mapping):
            raise CycloError(f"a {type(data).__name__} is not a mapping of order and coefficients")
        order, coeffs = data.get("order"), data.get("coeffs")
        _check_order(order)
        if not isinstance(coeffs, (list, tuple)) or len(coeffs) != euler_phi(order):
            raise CycloError("coefficients are not a list of phi(order) values")
        if any(type(c) not in (int, str) for c in coeffs):  # a float is inexact
            raise CycloError(f"coefficients {coeffs!r} are not ints and strings")
        try:
            return Cyclo(order, [Fraction(c) for c in coeffs])
        except (ValueError, ZeroDivisionError) as exc:
            raise CycloError(f"malformed coefficient in {coeffs!r}") from exc


def _ldexp(x: float, k: int) -> float:
    """x 2^k, or an infinity of x's sign past the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _inexact(q) -> CycloError:
    return CycloError(f"{type(q).__name__} {q!r} is not an int or a Fraction, "
                      "so it cannot enter exact arithmetic")


def _rational_last(a: Cyclo, b: Cyclo) -> tuple[Cyclo, Cyclo]:
    """The operands of a symmetric operation, an order-1 one (if any) last,
    so that it can act on the other's numerators directly."""
    return (b, a) if a.order == 1 else (a, b)


# `dot` packs a product when its double loop would take this many steps or
# more per coefficient packed: packing and reading back one coefficient costs
# about 8-16 steps (dense 16 x 16 terms at par, 32 x 32 1.4-2.3x faster
# packed, a monomial times 2,000 terms 3x slower packed)
_PACK_STEPS = 16


def _packs(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the product of a and b is made packed: the double loop takes a
    step per nonzero a[i] and each b[j], and those steps are many per
    coefficient."""
    return (len(a) - a.count(0)) * len(b) >= _PACK_STEPS * (len(a) + len(b))


def _pack(v: Sequence[int], w: int) -> int:
    """sum_i v[i] 2^(8 w i), for ints with |v[i]| < 2^(8 w - 1)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(w, "little") for c in v)
    neg = b"".join((-c if c < 0 else 0).to_bytes(w, "little") for c in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _packed_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The int polynomial a b by Kronecker substitution.  Every coefficient is
    at most min(len) max|a| max|b| in absolute value, so w bytes hold it,
    and every input coefficient, with its sign; adding 2^(8 w - 1) to every
    slot of the packed product makes each slot nonnegative, so the bytes
    read back one coefficient each."""
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bound = max(min(len(a), len(b)) * top_a * top_b, top_a, top_b)
    w = bound.bit_length() // 8 + 1
    n = len(a) + len(b) - 1
    half = 1 << (8 * w - 1)
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    data = (_pack(a, w) * _pack(b, w) + bias).to_bytes(n * w, "little")
    return [int.from_bytes(data[i:i + w], "little") - half for i in range(0, n * w, w)]


def root_of_unity(e: int, k: int = 1) -> Cyclo:
    """zeta_e^k as an exact value of Q(zeta_e); a rational power has order 1."""
    _check_order(e)
    if not isinstance(k, int):
        raise CycloError(f"exponent {k!r} is not an int")
    return Cyclo(e, [0] * (k % e) + [1])


def dot(xs: Iterable, ys: Iterable) -> Cyclo:
    """sum_i xs[i] * ys[i], exactly, in one fused pass that makes no Cyclo per
    term; an operand is an `int`, a `Fraction` or a `Cyclo`, and anything
    else raises `CycloError`.  Operands of unequal length raise
    `ValueError` rather than drop the terms past the shorter one.  It is the
    one product kernel: `x * y` of two irrational values is `dot((x,), (y,))`,
    and `+`, `-` and `==` of irrational values of different orders are dots.

    A term of two integers goes into one int accumulator.  Every other term
    goes into one unreduced int buffer over one common denominator, rescaled
    only when a term's denominator does not divide it.  The buffer's order
    is the lcm of the term orders seen so far, a term's order being the lcm
    of its two operand orders (a term with a zero rational operand adds
    nothing and brings no order).  A term that brings a new order embeds the
    buffer at stride new // old into a buffer of the larger order, which
    must not pass MAX_ORDER.  The buffer grows to the highest power a term
    reaches, at most 2 o - 2 at order o, so no exponent wraps per step; a
    product of two operands of one order is made packed when `_packs` says
    so, and added at its stride, or, when no term has reached the buffer
    yet, taken as the buffer.  The accumulator is added into coefficient
    0 and the buffer reduced once, at the end.  So the result is held by the
    rule of `+` and the cyclic transforms: at order 1 when it is rational,
    else at the lcm of its terms' orders, whatever the order of the terms."""
    rational = 0
    order, buf, den = 1, [0], 1  # order and den stay 1 until a term reaches buf
    for x, y in zip(xs, ys, strict=True):
        # an int or a Fraction is read by its numerator and denominator
        if isinstance(x, Cyclo):
            ox, nx, dx = x.order, x.nums, x.den
        elif isinstance(x, (int, Fraction)):
            ox, nx, dx = 1, (x.numerator,), x.denominator
        else:
            raise _inexact(x)
        if isinstance(y, Cyclo):
            oy, ny, dy = y.order, y.nums, y.den
        elif isinstance(y, (int, Fraction)):
            oy, ny, dy = 1, (y.numerator,), y.denominator
        else:
            raise _inexact(y)
        d = dx * dy
        if ox == oy == d == 1:
            rational += nx[0] * ny[0]
            continue
        if oy == 1:  # a rational operand goes first, and a zero one adds nothing
            ox, nx, oy, ny = oy, ny, ox, nx
        if ox == 1 and not nx[0]:
            continue
        o = math.lcm(order, ox, oy)
        if o != order:  # embed the buffer at stride o // order
            _check_order(o)
            stride = o // order
            grown = [0] * ((len(buf) - 1) * stride + 1)
            grown[::stride] = buf
            order, buf = o, grown
        if den % d:
            scale = d // math.gcd(den, d)
            buf = [c * scale for c in buf]
            den *= scale
        sx, sy, f = order // ox, order // oy, den // d
        top = (len(nx) - 1) * sx + (len(ny) - 1) * sy + 1  # one past the highest power
        packed = ox == oy and _packs(nx, ny)
        if packed and f == 1 and buf == [0]:  # buf holds nothing, so it is at order ox
            buf = _packed_mul(nx, ny)
            continue
        if top > len(buf):
            buf += [0] * (top - len(buf))
        if packed:  # one dense product, added at stride sx
            product = _packed_mul(nx, ny)
            buf[:top:sx] = map(add, buf[:top:sx],
                               product if f == 1 else map(mul, product, repeat(f)))
            continue
        for i, a in enumerate(nx):
            if a:
                a *= f
                shift = i * sx
                for j, b in enumerate(ny):
                    if b:
                        buf[shift + j * sy] += a * b
    if order == den == 1:  # every term stayed in the int accumulator
        return _held(1, (rational,), 1)
    buf[0] += rational * den
    return _value(order, _reduce(order, buf), den)


# The split form of a sequence of values, made once for the pairings that
# read it: (values, ints, rest), where ints[i] is values[i] when that is held
# as an int (order 1, den 1) and 0 otherwise, and rest lists the other
# positions, ascending.  A value at a position outside rest may be the int
# itself rather than a `Cyclo`.
Split = tuple[Sequence, list[int], list[int]]


def split(values: Sequence[Cyclo]) -> Split:
    """The split form of one sequence of `Cyclo` values."""
    ints, rest = [], []
    for i, v in enumerate(values):
        if v.order == v.den == 1:
            ints.append(v.nums[0])
        else:
            ints.append(0)
            rest.append(i)
    return values, ints, rest


def split_dot(x: Split, y: Split) -> Cyclo:
    """sum_i xs[i] * ys[i] over the values xs of x and ys of y, exactly, as
    `dot` holds it: the int parts' products in one C-level sum, and one
    `dot` over the positions where either operand holds a value that is not
    an int, with that sum as one more int term; when only one operand holds
    such values, the positions where the other holds 0 add nothing and are
    left out, as `dot` leaves out a term with a zero rational operand.  So a
    sum of int values makes no `Cyclo` but its result, and `dot` stays the
    one kernel of every other product.  Operands of unequal length raise
    `ValueError`."""
    xs, x_ints, x_rest = x
    ys, y_ints, y_rest = y
    if len(x_ints) != len(y_ints):
        raise ValueError(f"operands of length {len(x_ints)} and {len(y_ints)}")
    n = sum(map(mul, x_ints, y_ints))
    if x_rest and y_rest:
        rest = sorted({*x_rest, *y_rest})
    elif x_rest:  # ys are ints alone, and a term with an int 0 adds nothing
        rest = [j for j in x_rest if y_ints[j]]
    else:
        rest = [j for j in y_rest if x_ints[j]]
    if not rest:
        return _held(1, (n,), 1)
    return dot([*map(xs.__getitem__, rest), n], [*map(ys.__getitem__, rest), 1])


def _width(b: int) -> int:
    """W, the bits of x = 2^W in the ring under bound B: x >= 4 (B + 1)."""
    return b.bit_length() + 2


def kronecker_residues(values: Sequence[Cyclo], bound: Callable[[int, int, int], int]
                       ) -> tuple[int, int, int, int, list[int], list[int]]:
    """The one residue ring of the exact checks: the ring map zeta_L -> x =
    2^W of Z[zeta_L] onto Z/M, and the values in it.  Returns (M, D, B, n,
    images, conjugates), with n = phi(L) the ring's degree, and one image
    and one conjugate image per input value, in input order.

    L is the lcm of the value orders, D the lcm of their denominators and A
    the largest 1-norm of a D-scaled value's numerators, each read once per
    distinct held form (order, nums, den).  The caller states its bound as a
    function of A, D and n: B = bound(A, D, n) bounds the 1-norm of every
    sum it tests (n serves a caller that bounds a value by its n
    coefficients on 1, zeta_L, ..., zeta_L^(n-1)).  W = bits(B) + 2 and M =
    |Phi_L(x)|.  A value v maps to D v(x) mod M, and its conjugate to
    D v(x^-1) mod M, where x^-1 = x^(L-1) since x^L = 1 mod M; each residue
    is in [0, M), and each distinct held form is mapped once, so equal
    values held as distinct objects share residues.

    The map is a ring homomorphism, and its kernel is an ideal of norm M.
    So a nonzero algebraic integer alpha = sum_i c_i zeta_L^i in it has M
    dividing N(alpha), while |N(alpha)| <= ||c||_1^phi(L) < (x - 1)^phi(L)
    <= M whenever ||c||_1 < x - 1.  Since x >= 4 (B + 1), a sum of products
    of D-scaled values whose coefficients on the powers of zeta_L have 1-norm
    at most 2 B maps to 0 exactly when it is 0: an identity between such
    sums is one int equation modulo M (Kronecker substitution, as in D.
    Harvey, J. Symbolic Comput. 44 (2009))."""
    held = [(v.order, v.nums, v.den) for v in values]
    distinct = dict(zip(held, values))  # each held form -> a value that holds it
    order = math.lcm(*(v.order for v in distinct.values()))
    den = math.lcm(*(v.den for v in distinct.values()))
    deg, terms = _phi_terms(order)[-1]
    b = bound(max(sum(map(abs, v.nums)) * (den // v.den) for v in distinct.values()), den, deg)
    w = _width(b)
    modulus = abs((1 << (w * deg)) + sum(c << (w * j) for j, c in terms))
    residues = {}
    for key, v in distinct.items():
        step, f = w * (order // v.order), den // v.den
        image = conjugate = 0
        for i, c in enumerate(v.nums):
            if c:
                image += c * f << step * i
                conjugate += c * f << step * (-i % v.order)
        residues[key] = image % modulus, conjugate % modulus
    images, conjugates = map(list, zip(*map(residues.__getitem__, held)))
    return modulus, den, b, deg, images, conjugates


def kronecker_window(b: int, n: int, k: int) -> tuple[int, int]:
    """(bias, outside) of the range test in the ring of `kronecker_residues`
    under bound B and degree n, for k + 1 < W: bias = 2^k sum_{i<n} x^i, and
    outside has the bits of each of the n base-x digits above its k + 1
    lowest, and every bit past them.  If (R + bias) mod M has no bit of
    outside set, it is sum_{i<n} u_i x^i with 0 <= u_i < 2^(k+1), so R is
    the image of sum_{i<n} (u_i - 2^k) zeta_L^i: an algebraic integer with
    every coefficient in [-2^k, 2^k), of 1-norm at most n 2^k."""
    w = _width(b)
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)  # sum_{i < n} x^i
    return ones << k, ~(ones * ((2 << k) - 1))


def _root_sums(values: Sequence[Cyclo], n: int, sign: int, divisor: int = 1) -> list[Cyclo]:
    """[sum_k values[k] zeta_n^(sign k q) / divisor for q in range(n)].

    Each value is embedded once, its numerators brought to one common
    denominator, into the unreduced basis 1, z, ..., z^(L-1) of Q(zeta_L),
    with L the lcm of n and the value orders.  There, multiplying by
    zeta_n^m rotates the vector by m L / n, so each sum costs one pass over
    the nonzero coefficients and one reduction.  A sum is held at order L, or
    at order 1 when rational."""
    order = math.lcm(n, *(v.order for v in values))
    den = math.lcm(*(v.den for v in values))
    terms = [[(i * (order // v.order), c * (den // v.den)) for i, c in enumerate(v.nums) if c]
             for v in values]
    shift = sign * (order // n)
    sums = []
    for q in range(n):
        buf = [0] * order
        for k, vec in enumerate(terms):
            rot = k * q * shift
            for i, c in vec:
                buf[(i + rot) % order] += c
        sums.append(_value(order, _reduce(order, buf), den * divisor))
    return sums


def from_rational(q: RationalLike) -> Cyclo:
    return Cyclo.from_rational(q)
