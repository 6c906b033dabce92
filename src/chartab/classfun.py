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

from .cyclo import Cyclo, from_rational, root_of_unity
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

    def degree(self) -> Cyclo:
        return self.values[0]

    def _check_group(self, other: "ClassFunction") -> None:
        if self.group is not other.group:
            raise GroupMismatchError("class functions on different groups")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
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
        factor = Cyclo._coerce(c)
        return ClassFunction(self.group, [factor * v for v in self.values])

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def to_json(self) -> dict:
        return {
            "group_spec": self.group.spec,
            "values": [v.to_json() for v in self.values],
        }

    def __repr__(self) -> str:
        vals = ", ".join(v.exact_str() for v in self.values)
        return f"ClassFunction[{vals}]"


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Cyclo:
    """<f1,f2> = (1/|G|) sum_j r_j f1(g_j) conj(f2(g_j)), exact."""
    f1._check_group(f2)
    data = f1.group.conjugacy_classes()
    total = Cyclo.zero()
    for j, cl in enumerate(data.classes):
        total = total + cl.size * (f1.values[j] * f2.values[j].conj())
    return total * Fraction(1, f1.group.order)


def bilinear_form(f1: ClassFunction, f2: ClassFunction) -> Cyclo:
    """(f1,f2) = (1/|G|) sum_j r_j f1(g_j) f2(g_j^-1); symmetric."""
    f1._check_group(f2)
    data = f1.group.conjugacy_classes()
    total = Cyclo.zero()
    for j, cl in enumerate(data.classes):
        total = total + cl.size * (f1.values[j] * f2.values[data.inverse_class[j]])
    return total * Fraction(1, f1.group.order)


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
    """Multiplicities <chi, chi_i> over the table rows; rejects non-characters."""
    mults = []
    for row in table.rows:
        m = inner_product(chi, row)
        if not m.is_rational():
            raise NotACharacterError(f"multiplicity {m} is not rational")
        q = m.as_rational()
        if q.denominator != 1 or q < 0:
            raise NotACharacterError(
                f"not a character: multiplicity {q} is not a nonnegative integer"
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
    """fhat(q) = (1/n) sum_k f(k) zeta_n^(-kq), the 1/n-normalized transform."""
    if len(f) != n:
        raise ValueError(f"expected {n} values, got {len(f)}")
    f = [Cyclo._coerce(v) for v in f]
    inv_n = Fraction(1, n)
    out = []
    for q in range(n):
        acc = Cyclo.zero()
        for k, v in enumerate(f):
            acc = acc + v * root_of_unity(n, (-k * q) % n)
        out.append(inv_n * acc)
    return out


def inverse_dft_cyclic(fhat: Sequence[Cyclo], n: int) -> list[Cyclo]:
    """f(k) = sum_q fhat(q) zeta_n^(kq)."""
    if len(fhat) != n:
        raise ValueError(f"expected {n} values, got {len(fhat)}")
    fhat = [Cyclo._coerce(v) for v in fhat]
    out = []
    for k in range(n):
        acc = Cyclo.zero()
        for q, v in enumerate(fhat):
            acc = acc + v * root_of_unity(n, (k * q) % n)
        out.append(acc)
    return out


def plancherel_check(f: Sequence[Cyclo], n: int) -> tuple[Cyclo, Cyclo]:
    """Both sides of (1/n) sum |f(k)|^2 = sum |fhat(q)|^2, exactly."""
    f = [Cyclo._coerce(v) for v in f]
    fhat = dft_cyclic(f, n)
    lhs = Cyclo.zero()
    for v in f:
        lhs = lhs + v * v.conj()
    lhs = Fraction(1, n) * lhs
    rhs = Cyclo.zero()
    for v in fhat:
        rhs = rhs + v * v.conj()
    return lhs, rhs
