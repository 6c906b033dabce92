"""Class functions and character arithmetic.

A class function is a vector of cyclotomic values indexed by the conjugacy
classes of a fixed group (canonical class order).  Both pairings live here:
the Hermitian inner product <f1,f2> = (1/|G|) sum f1(t) conj(f2(t)) and the
bilinear form (f1,f2) = (1/|G|) sum f1(t) f2(t^-1), each evaluated class-wise
with exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cyclo import Cyclo, _root_sums, dot, from_rational
from .permgroup import GroupMismatchError, PermGroup


class NotACharacterError(ValueError):
    """Decomposition produced a multiplicity that is not a nonnegative integer."""


class ClassFunction:
    """Values on conjugacy classes, in the group's canonical class order."""

    __slots__ = ("group", "values")

    def __init__(self, group: PermGroup, values: Sequence[Cyclo]):
        n_classes = len(group.conjugacy_classes())
        if len(values) != n_classes:
            raise ValueError(
                f"expected {n_classes} class values, got {len(values)}"
            )
        self.group = group
        self.values = tuple(Cyclo._coerce(v) for v in values)

    @classmethod
    def _of(cls, group: PermGroup, values: tuple[Cyclo, ...]) -> "ClassFunction":
        """A class function on a tuple of h values that are already `Cyclo`,
        made by the library itself: neither checked for length nor coerced."""
        f = object.__new__(cls)
        f.group = group
        f.values = values
        return f

    def _check_group(self, other: "ClassFunction") -> None:
        if self.group != other.group:
            raise GroupMismatchError("class functions on different groups")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.group == other.group
            and all(a == b for a, b in zip(self.values, other.values))
        )

    __hash__ = None

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_group(other)
        return ClassFunction(
            self.group, [a * b for a, b in zip(self.values, other.values)]
        )

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_group(other)
        return ClassFunction(
            self.group, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_group(other)
        return ClassFunction(
            self.group, [a - b for a, b in zip(self.values, other.values)]
        )

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, [v.conj() for v in self.values])

    def scaled(self, c) -> "ClassFunction":
        return ClassFunction(self.group, [c * v for v in self.values])

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __repr__(self) -> str:
        vals = ", ".join(v.exact_str() for v in self.values)
        return f"ClassFunction[{vals}]"


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Cyclo:
    """<f1,f2> = (1/|G|) sum_j r_j f1(g_j) conj(f2(g_j)), exact."""
    f1._check_group(f2)
    sizes = f1.group.conjugacy_classes().sizes
    weighted = [r * b.conj() for r, b in zip(sizes, f2.values)]
    return dot(f1.values, weighted) * Fraction(1, f1.group.order)


def bilinear_form(f1: ClassFunction, f2: ClassFunction) -> Cyclo:
    """(f1,f2) = (1/|G|) sum_j r_j f1(g_j) f2(g_j^-1); symmetric."""
    f1._check_group(f2)
    data = f1.group.conjugacy_classes()
    weighted = [r * f2.values[j] for r, j in zip(data.sizes, data.inverse_class)]
    return dot(f1.values, weighted) * Fraction(1, f1.group.order)


def sym_alt_square(chi: ClassFunction) -> tuple[ClassFunction, ClassFunction]:
    """Characters of the symmetric and alternating squares:
    chi_S(g) = (chi(g)^2 + chi(g^2)) / 2, chi_A(g) = (chi(g)^2 - chi(g^2)) / 2.
    """
    group = chi.group
    data = group.conjugacy_classes()
    half = Fraction(1, 2)
    sym_vals = []
    alt_vals = []
    for j, powers in enumerate(data.power_class):
        square_value = chi.values[powers[2 % len(powers)]]
        chi_sq = chi.values[j] * chi.values[j]
        sym_vals.append(half * (chi_sq + square_value))
        alt_vals.append(half * (chi_sq - square_value))
    return ClassFunction(group, sym_vals), ClassFunction(group, alt_vals)


def is_irreducible(chi: ClassFunction) -> bool:
    return inner_product(chi, chi) == 1


def decompose(chi: ClassFunction, table) -> list[int]:
    """Multiplicities <chi, chi_i> over the table rows; rejects non-characters.

    Each is evaluated as its conjugate (1/|G|) sum_j chi_i(g_j) r_j conj(chi(g_j)):
    conj(chi) is weighted by the class sizes once, and each row takes one
    fused `dot` with that vector, which makes no product per term and
    conjugates no table value.  An accepted multiplicity is rational, so equal
    to its conjugate: the sum is then nums[0] / den at order 1, and one
    `divmod(nums[0], den |G|)` reads the multiplicity off it, making no
    `Fraction` unless a rejection prints one.  The irrational value a rejection
    reports is held where `dot` holds it, at the lcm of its terms' orders.
    chi's group must equal the table's (`PermGroup`'s equality), which the
    table holds its rows to, so it is checked once, not per row."""
    if chi.group != table.group:
        raise GroupMismatchError("class functions on different groups")
    sizes = chi.group.conjugacy_classes().sizes
    weighted = [r * v.conj() for r, v in zip(sizes, chi.values)]
    order = chi.group.order
    mults = []
    for row in table.rows:
        s = dot(row.values, weighted)
        if not s.is_rational():
            m = s * Fraction(1, order)
            raise NotACharacterError(f"multiplicity {m.conj()} is not rational")
        q, rem = divmod(s.nums[0], s.den * order)
        if rem or q < 0:
            raise NotACharacterError(
                "not a character: multiplicity "
                f"{Fraction(s.nums[0], s.den * order)} is not a nonnegative integer"
            )
        mults.append(q)
    return mults


def regular_character(g: PermGroup) -> ClassFunction:
    """|G| at the identity class, 0 elsewhere."""
    values = [Cyclo.zero()] * len(g.conjugacy_classes())
    values[0] = from_rational(g.order)
    return ClassFunction(g, values)


def trivial_character(g: PermGroup) -> ClassFunction:
    return ClassFunction(g, [Cyclo.one()] * len(g.conjugacy_classes()))


# -- cyclic-group Fourier transform ------------------------------------------


def dft_cyclic(f: Sequence[Cyclo], n: int) -> list[Cyclo]:
    """fhat(q) = (1/n) sum_k f(k) zeta_n^(-kq), the 1/n-normalized transform.

    An irrational fhat(q) is held at order lcm(n, orders of the f(k))."""
    if len(f) != n:
        raise ValueError(f"expected {n} values, got {len(f)}")
    return _root_sums([Cyclo._coerce(v) for v in f], n, -1, n)


def inverse_dft_cyclic(fhat: Sequence[Cyclo], n: int) -> list[Cyclo]:
    """f(k) = sum_q fhat(q) zeta_n^(kq), held at the order `dft_cyclic` uses."""
    if len(fhat) != n:
        raise ValueError(f"expected {n} values, got {len(fhat)}")
    return _root_sums([Cyclo._coerce(v) for v in fhat], n, 1)


def plancherel_check(f: Sequence[Cyclo], n: int) -> tuple[Cyclo, Cyclo]:
    """Both sides of (1/n) sum |f(k)|^2 = sum |fhat(q)|^2, exactly."""
    f = [Cyclo._coerce(v) for v in f]
    fhat = dft_cyclic(f, n)
    lhs = Fraction(1, n) * dot(f, [v.conj() for v in f])
    return lhs, dot(fhat, [v.conj() for v in fhat])
