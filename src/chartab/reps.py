"""Explicit matrix representations over cyclotomics.

A representation is given by generator images and extended to the whole
group along the group's own breadth-first element enumeration, verifying
the homomorphism property on every Cayley-graph edge.  Matrix arithmetic is
naive and exact; dimensions in scope are tiny.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .classfun import ClassFunction
from .cyclo import Cyclo, dot, from_rational, root_of_unity
from .permgroup import GroupMismatchError, ParseError, Perm, PermGroup, parse_group_spec

CycloMatrix = tuple[tuple[Cyclo, ...], ...]


class InconsistentRepError(ValueError):
    """Generator images do not define a homomorphism."""


def _as_matrix(rows: Sequence[Sequence]) -> CycloMatrix:
    return tuple(tuple(Cyclo._coerce(v) for v in row) for row in rows)


def mat_identity(n: int) -> CycloMatrix:
    return tuple(
        tuple(Cyclo.one() if i == j else Cyclo.zero() for j in range(n))
        for i in range(n)
    )


def mat_mul(a: CycloMatrix, b: CycloMatrix) -> CycloMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_eq(a: CycloMatrix, b: CycloMatrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_trace(a: CycloMatrix) -> Cyclo:
    return sum((a[i][i] for i in range(len(a))), Cyclo.zero())


def mat_det(a: CycloMatrix) -> Cyclo:
    """Determinant by cofactor expansion; dimensions in scope are <= 4."""
    n = len(a)
    if n == 1:
        return a[0][0]
    cofactors = (
        a[0][j] * mat_det(tuple(row[:j] + row[j + 1:] for row in a[1:]))
        for j in range(n)
    )
    return dot([(-1) ** j for j in range(n)], cofactors)


class MatrixRep:
    """Generator images over cyclotomics, extendable to the whole group."""

    def __init__(self, group: PermGroup, images: Sequence[CycloMatrix]):
        if len(images) != len(group.generators):
            raise ValueError(
                f"expected {len(group.generators)} generator images, got {len(images)}"
            )
        self.group = group
        self.images = tuple(_as_matrix(m) for m in images)
        self.dim = len(self.images[0]) if self.images else 1
        for m in self.images:
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValueError("generator images must be square of equal size")
            if mat_det(m).is_zero():
                raise InconsistentRepError("generator image is singular")
        self.full_images: dict[Perm, CycloMatrix] | None = None

    def extend_to_group(self) -> "MatrixRep":
        """Fill images for every element along the group's breadth-first
        enumeration, checking every Cayley-graph edge; raises when two words
        for the same element disagree."""
        if self.full_images is not None:
            return self
        full = {Perm.identity(self.group.degree): mat_identity(self.dim)}
        gens = [(gen.right_mul(), gen_img)
                for gen, gen_img in zip(self.group.generators, self.images)]
        for el in self.group.elements:
            for times_gen, gen_img in gens:
                prod = Perm(times_gen(el))
                mat = mat_mul(full[el], gen_img)
                seen = full.get(prod)
                if seen is None:
                    full[prod] = mat
                elif not mat_eq(seen, mat):
                    raise InconsistentRepError(
                        f"images are not a homomorphism at element "
                        f"{prod.cycle_string()}"
                    )
        self.full_images = full
        return self

    def image(self, el: Perm) -> CycloMatrix:
        self.extend_to_group()
        return self.full_images[el]

    def __repr__(self) -> str:
        return f"MatrixRep(dim={self.dim}, group={self.group.spec})"


def character_of(rep: MatrixRep) -> ClassFunction:
    """Trace at one representative per class."""
    rep.extend_to_group()
    data = rep.group.conjugacy_classes()
    return ClassFunction(
        rep.group, [mat_trace(rep.image(g)) for g in data.representatives]
    )


def permutation_character(g: PermGroup) -> ClassFunction:
    """Fixed-point count of each class representative."""
    data = g.conjugacy_classes()
    return ClassFunction(
        g, [from_rational(x.fixed_points()) for x in data.representatives]
    )


def standard_character(g: PermGroup) -> ClassFunction:
    """Permutation character minus the trivial constituent."""
    data = g.conjugacy_classes()
    return ClassFunction(
        g,
        [from_rational(x.fixed_points() - 1) for x in data.representatives],
    )


class OrthogonalityReport:
    """Outcome of the matrix-element orthogonality check."""

    def __init__(self, same_rep: bool, dim: int, checked: int,
                 violations: list[tuple[tuple[int, int, int, int], Cyclo, Cyclo]]):
        self.same_rep = same_rep
        self.dim = dim
        self.checked = checked
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"OrthogonalityReport({self.checked} pairings, {state})"


def check_matrix_orthogonality(rep1: MatrixRep, rep2: MatrixRep) -> OrthogonalityReport:
    """Evaluate (a_il, b_mj) = (1/|G|) sum_t a_il(t) b_mj(t^-1) on all index
    tuples; for rep1 = rep2 the expected value is delta_ij delta_lm / dim,
    across distinct irreducibles it is 0.  Lists every violation."""
    if rep1.group is not rep2.group:
        raise GroupMismatchError("representations of different groups")
    rep1.extend_to_group()
    rep2.extend_to_group()
    group = rep1.group
    same = rep1 is rep2
    inv_order = Fraction(1, group.order)
    # pair each element with its inverse's images once
    pairs = [(rep1.full_images[t], rep2.full_images[t.inv()]) for t in group.elements]
    violations = []
    checked = 0
    n1, n2 = rep1.dim, rep2.dim
    for i in range(n1):
        for l in range(n1):
            for m in range(n2):
                for j in range(n2):
                    value = inv_order * dot((a[i][l] for a, _ in pairs),
                                            (b[m][j] for _, b in pairs))
                    if same and i == j and l == m:
                        expected = from_rational(Fraction(1, n1))
                    else:
                        expected = Cyclo.zero()
                    checked += 1
                    if value != expected:
                        violations.append(((i, l, m, j), value, expected))
    return OrthogonalityReport(same, n1, checked, violations)


# -- builtin representations ---------------------------------------------------

_DIHEDRAL_REP_RE = re.compile(r"^dihedral-rot:([1-9]\d*):(-?\d+)$")


def builtin_rep(name: str) -> MatrixRep:
    """`q8-2dim` or `dihedral-rot:<n>:<r>` (rotation by 2 pi r / n)."""
    name = name.strip()
    if name == "q8-2dim":
        group = parse_group_spec("Q8")
        zi = root_of_unity(4)
        images = [
            _as_matrix([[0, 1], [-1, 0]]),
            ((Cyclo.zero(), zi), (zi, Cyclo.zero())),
        ]
        return MatrixRep(group, images)
    m = _DIHEDRAL_REP_RE.match(name)
    if m:
        n, r = int(m.group(1)), int(m.group(2))
        if n < 3:
            raise ParseError("dihedral-rot requires n >= 3")
        group = parse_group_spec(f"D{n}")
        z = root_of_unity(n, r % n)
        zbar = root_of_unity(n, (-r) % n)
        half = Fraction(1, 2)
        cos = half * (z + zbar)
        sin = (half * (z - zbar)) * root_of_unity(4, 3)  # (z - zbar) / (2i)
        rot = ((cos, -sin), (sin, cos))
        flip = _as_matrix([[0, 1], [1, 0]])
        return MatrixRep(group, [rot, flip])
    raise ParseError(f"unknown builtin representation {name!r}")
