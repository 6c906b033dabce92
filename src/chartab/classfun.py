"""Class functions and character arithmetic.

A class function is a vector of cyclotomic values indexed by the conjugacy
classes of a fixed group (canonical class order).  Both pairings live here:
the Hermitian inner product <f1,f2> = (1/|G|) sum f1(t) conj(f2(t)) and the
bilinear form (f1,f2) = (1/|G|) sum f1(t) f2(t^-1), each evaluated class-wise
with exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub
from typing import Sequence

from .cyclo import Cyclo, Split, _root_sums, _value, dot, from_rational, split, split_dot
from .permgroup import GroupMismatchError, PermGroup


class NotACharacterError(ValueError):
    """Decomposition produced a multiplicity that is not a nonnegative integer."""


class ClassFunction:
    """Values on conjugacy classes, in the group's canonical class order."""

    __slots__ = ("group", "values", "_split")

    def __init__(self, group: PermGroup, values: Sequence[Cyclo]):
        n_classes = len(group.conjugacy_classes())
        if len(values) != n_classes:
            raise ValueError(
                f"expected {n_classes} class values, got {len(values)}"
            )
        self.group = group
        self.values = tuple(Cyclo._coerce(v) for v in values)
        self._split = None

    @classmethod
    def _of(cls, group: PermGroup, values: tuple[Cyclo, ...]) -> "ClassFunction":
        """A class function on a tuple of h values that are already `Cyclo`,
        made by the library itself: neither checked for length nor coerced."""
        f = object.__new__(cls)
        f.group = group
        f.values = values
        f._split = None
        return f

    @property
    def split(self) -> Split:
        """The values' split form (`cyclo.split`), made on first read and kept
        with the function, whose values do not change: a table's rows keep
        theirs as long as the table, and no build makes one."""
        if self._split is None:
            self._split = split(self.values)
        return self._split

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
        """The pointwise product: one int product per class where both values
        are ints, and a `Cyclo` product elsewhere."""
        self._check_group(other)
        _, x_ints, x_rest = self.split
        _, y_ints, y_rest = other.split
        values = list(map(Cyclo.from_rational, map(mul, x_ints, y_ints)))
        for j in {*x_rest, *y_rest}:
            values[j] = self.values[j] * other.values[j]
        return ClassFunction._of(self.group, tuple(values))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_group(other)
        return ClassFunction._of(self.group, tuple(map(add, self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_group(other)
        return ClassFunction._of(self.group, tuple(map(sub, self.values, other.values)))

    def conjugate(self) -> "ClassFunction":
        return ClassFunction._of(self.group, tuple(v.conj() for v in self.values))

    def scaled(self, c) -> "ClassFunction":
        return ClassFunction._of(self.group, tuple(c * v for v in self.values))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __repr__(self) -> str:
        vals = ", ".join(v.exact_str() for v in self.values)
        return f"ClassFunction[{vals}]"


def _sized(values: Sequence[Cyclo], sizes: Sequence[int]) -> Split:
    """r_j v_j over the classes j, as a split form of the values v: only the
    values that are not ints make a `Cyclo`."""
    values, ints, rest = split(values)
    sized = list(map(mul, sizes, ints))
    weighted = sized.copy()
    for j in rest:
        weighted[j] = sizes[j] * values[j]
    return weighted, sized, rest


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Cyclo:
    """<f1,f2> = (1/|G|) sum_j r_j f1(g_j) conj(f2(g_j)), exact; the sum is
    divided by |G| as `* Fraction(1, |G|)` would, with no `Fraction`."""
    f1._check_group(f2)
    sizes = f2.group.conjugacy_classes().sizes
    s = split_dot(f1.split, _sized([*map(Cyclo.conj, f2.values)], sizes))
    return _value(s.order, s.nums, s.den * f1.group.order)


def bilinear_form(f1: ClassFunction, f2: ClassFunction) -> Cyclo:
    """(f1,f2) = (1/|G|) sum_j r_j f1(g_j) f2(g_j^-1); symmetric."""
    f1._check_group(f2)
    data = f2.group.conjugacy_classes()
    s = split_dot(f1.split, _sized([*map(f2.values.__getitem__, data.inverse_class)], data.sizes))
    return _value(s.order, s.nums, s.den * f1.group.order)


def _half(n: int) -> Cyclo:
    return from_rational(n >> 1 if n % 2 == 0 else Fraction(n, 2))


def sym_alt_square(chi: ClassFunction) -> tuple[ClassFunction, ClassFunction]:
    """Characters of the symmetric and alternating squares:
    chi_S(g) = (chi(g)^2 + chi(g^2)) / 2, chi_A(g) = (chi(g)^2 - chi(g^2)) / 2.

    Where chi(g) = c and chi(g^2) = s are both ints, each is (c c +- s) / 2,
    made from chi's split form in C-level maps; every other class takes
    `Cyclo` arithmetic."""
    group = chi.group
    values, c, rest = chi.split
    square = [p[2 % len(p)] for p in group.conjugacy_classes().power_class]
    sq_values, s, sq_rest = split(tuple(map(values.__getitem__, square)))  # chi(g^2)
    cc = list(map(mul, c, c))
    sym_vals = list(map(_half, map(add, cc, s)))
    alt_vals = list(map(_half, map(sub, cc, s)))
    for j in {*rest, *sq_rest}:
        chi_sq = values[j] * values[j]
        sym_vals[j] = (chi_sq + sq_values[j]) * Fraction(1, 2)
        alt_vals[j] = (chi_sq - sq_values[j]) * Fraction(1, 2)
    return ClassFunction._of(group, tuple(sym_vals)), ClassFunction._of(group, tuple(alt_vals))


def is_irreducible(chi: ClassFunction) -> bool:
    return inner_product(chi, chi) == 1


def decompose(chi: ClassFunction, table) -> list[int]:
    """Multiplicities <chi, chi_i> over the table rows; rejects non-characters.

    Each is evaluated as its conjugate (1/|G|) sum_j chi_i(g_j) r_j conj(chi(g_j)):
    conj(chi) is weighted by the class sizes once, as a split form, and each
    row's form, which the row keeps, takes one `split_dot` with it: one
    C-level int sum where both values are ints and one `dot` over the other
    classes, conjugating no table value.  An accepted
    multiplicity is rational, so equal to its conjugate: the sum is then
    nums[0] / den at order 1, and one `divmod(nums[0], den |G|)` reads the
    multiplicity off it, making no `Fraction` unless a rejection prints one.
    The irrational value a rejection reports is held where `dot` holds it,
    at the lcm of its terms' orders.  chi's group must equal the table's
    (`PermGroup`'s equality), which the table holds its rows to, so it is
    checked once, not per row."""
    if chi.group != table.group:
        raise GroupMismatchError("class functions on different groups")
    weighted = _sized([*map(Cyclo.conj, chi.values)], chi.group.conjugacy_classes().sizes)
    order = chi.group.order
    mults = []
    for row in table.rows:
        s = split_dot(row.split, weighted)
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


def _on_cyclic(values: Sequence[Cyclo], n: int) -> list[Cyclo]:
    """The n values of a function on Z/n as `Cyclo`s, for a modulus n >= 1."""
    if n < 1:
        raise ValueError(f"modulus n must be at least 1, got {n}")
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    return [Cyclo._coerce(v) for v in values]


def dft_cyclic(f: Sequence[Cyclo], n: int) -> list[Cyclo]:
    """fhat(q) = (1/n) sum_k f(k) zeta_n^(-kq), the 1/n-normalized transform.

    An irrational fhat(q) is held at order lcm(n, orders of the f(k))."""
    return _root_sums(_on_cyclic(f, n), n, -1, n)


def inverse_dft_cyclic(fhat: Sequence[Cyclo], n: int) -> list[Cyclo]:
    """f(k) = sum_q fhat(q) zeta_n^(kq), held at the order `dft_cyclic` uses."""
    return _root_sums(_on_cyclic(fhat, n), n, 1)


def plancherel_check(f: Sequence[Cyclo], n: int) -> tuple[Cyclo, Cyclo]:
    """Both sides of (1/n) sum |f(k)|^2 = sum |fhat(q)|^2, exactly."""
    f = _on_cyclic(f, n)
    fhat = dft_cyclic(f, n)
    lhs = Fraction(1, n) * dot(f, [v.conj() for v in f])
    return lhs, dot(fhat, [v.conj() for v in fhat])
