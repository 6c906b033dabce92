"""Explicit matrix representations over cyclotomics.

A representation is given by generator images and extended to the whole
group along the group's own breadth-first element enumeration.  Exact
`Cyclo` products are made only on the |G| - 1 edges el -> el s of the
discovery tree.  Every other Cayley-graph edge, rho(el) rho(s) = rho(el s),
and every Schur pairing is one int equation modulo M in the residue ring of
`kronecker_residues`, under a bound stated in its A and D: d A^2 + D A for
an edge in dimension d, and n1 |G| A^2 + |G| D^2 for a pairing, so no bound
grows with the tree's depth.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Callable, Sequence

from .classfun import ClassFunction
from .cyclo import Cyclo, dot, from_rational, kronecker_residues, root_of_unity
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


def mat_trace(a: CycloMatrix) -> Cyclo:
    return sum((a[i][i] for i in range(len(a))), Cyclo.zero())


def mat_det(a: CycloMatrix) -> Cyclo:
    """Determinant by cofactor expansion along the first row, each level one
    `dot` of the signed row with its minors; dimensions in scope are <= 4."""
    n = len(a)
    if n == 1:
        return a[0][0]
    return dot([-v if j % 2 else v for j, v in enumerate(a[0])],
               [mat_det(tuple(row[:j] + row[j + 1:] for row in a[1:])) for j in range(n)])


def _residues(mats: list[CycloMatrix], bound: Callable[[int, int], int]) -> tuple:
    """(M, D, the matrices in Z/M) of `kronecker_residues` under bound."""
    modulus, d, _, images, _ = kronecker_residues([v for m in mats for row in m for v in row],
                                                  bound)
    flat = iter(images)
    return modulus, d, [[list(islice(flat, len(row))) for row in m] for m in mats]


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
        enumeration, an exact product on the edge that first reaches each
        element, then check every other Cayley-graph edge in the residue
        ring; raises at the first edge, in enumeration order, where two
        words for the same element disagree."""
        if self.full_images is not None:
            return self
        full = {Perm.identity(self.group.degree): mat_identity(self.dim)}
        gens = [(gen.right_mul(), gen_img)
                for gen, gen_img in zip(self.group.generators, self.images)]
        edges = []  # (el, k, el s_k) off the discovery tree, in enumeration order
        for el in self.group.elements:
            for k, (times_gen, gen_img) in enumerate(gens):
                prod = times_gen(el)  # a tuple, which a Perm key equals
                if prod in full:
                    edges.append((el, k, prod))
                else:
                    full[Perm(prod)] = mat_mul(full[el], gen_img)
        modulus, d, res = _residues([*full.values(), *self.images],
                                    lambda a, d: self.dim * a * a + d * a)
        image = dict(zip(full, res))
        gen_cols = [list(zip(*m)) for m in res[len(full):]]
        for el, k, prod in edges:
            if any((sum(map(mul, row, col)) - d * t) % modulus
                   for row, target in zip(image[el], image[prod])
                   for col, t in zip(gen_cols[k], target)):
                raise InconsistentRepError(
                    f"images are not a homomorphism at element "
                    f"{Perm(prod).cycle_string()}"
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
    across distinct irreducibles it is 0.  Each pairing is decided in the
    residue ring of both reps' image values, as n1 sum_t D a_il(t) D b_mj(t^-1)
    = |G| D^2 or 0; lists every violation with its exact value."""
    if rep1.group is not rep2.group:
        raise GroupMismatchError("representations of different groups")
    full1 = rep1.extend_to_group().full_images
    full2 = rep2.extend_to_group().full_images
    group = rep1.group
    same = rep1 is rep2
    order, n1, n2 = group.order, rep1.dim, rep2.dim
    modulus, d, res = _residues([*full1.values(), *full2.values()],
                                lambda a, d: n1 * order * a * a + order * d * d)
    res1, res2 = dict(zip(full1, res)), dict(zip(full2, res[len(full1):]))
    elements = group.elements
    inverses = [t.inv() for t in elements]
    # D a_il(t) and D b_mj(t^-1) mod M, as vectors over t
    a_vecs = [[[res1[t][i][l] for t in elements] for l in range(n1)] for i in range(n1)]
    b_vecs = [[[res2[u][m][j] for u in inverses] for j in range(n2)] for m in range(n2)]
    violations = []
    checked = 0
    for i in range(n1):
        for l in range(n1):
            for m in range(n2):
                for j in range(n2):
                    diagonal = same and i == j and l == m
                    checked += 1
                    if (n1 * sum(map(mul, a_vecs[i][l], b_vecs[m][j]))
                            - (order * d * d if diagonal else 0)) % modulus:
                        value = Fraction(1, order) * dot([full1[t][i][l] for t in elements],
                                                         [full2[u][m][j] for u in inverses])
                        expected = from_rational(Fraction(1, n1)) if diagonal else Cyclo.zero()
                        violations.append(((i, l, m, j), value, expected))
    return OrthogonalityReport(same, n1, checked, violations)


# -- builtin representations ---------------------------------------------------

_DIHEDRAL_REP_RE = re.compile(r"^dihedral-rot:([1-9]\d*):(-?\d+)$")


def builtin_rep(name: str) -> MatrixRep:
    """`q8-2dim` or `dihedral-rot:<n>:<r>` (rotation by 2 pi r / n of D<n>,
    the builtin dihedral group, so 3 <= n <= 9)."""
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
        if not 3 <= n <= 9:
            raise ParseError(f"dihedral-rot requires 3 <= n <= 9, got n = {n}")
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
