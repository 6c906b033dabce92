"""Explicit matrix representations over cyclotomics.

A representation is given by generator images.  Every identity it is
checked on, each Cayley-graph edge rho(el) rho(s) = rho(el s) of the
group's breadth-first enumeration and each Schur pairing, is one int
equation modulo M in the residue ring of `kronecker_residues`.  That ring
is built from the images of the identity and the generators alone.  One
walk of the Cayley graph makes every other image in it, one int matrix
product per tree edge, and checks every other edge; a coefficient-range
test on each such residue proves a bound on every image that no depth
enters (`_ring`).
Exact `Cyclo` images are made along the same tree, and only when asked:
`full_images`, `image`, `character_of`, the value of a violated pairing, or
a ring whose guess a residue fails.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Callable, Sequence

from .classfun import ClassFunction
from .cyclo import (Cyclo, dot, from_rational, kronecker_residues, kronecker_window,
                    root_of_unity)
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


def _coefficient_bits(d: int) -> int:
    """k of the guess that every D rho(el) has its coefficients in [-2^k,
    2^k): 2^k > 2D, which bounds those of a unitary rep over a prime L."""
    return d.bit_length() + 1


def _shaped(flat: list[int], mats: list[list[CycloMatrix]]) -> list[list[list[list[int]]]]:
    """The flat residues of the entries of mats, as matrices like theirs."""
    it = iter(flat)
    return [[[list(islice(it, len(row))) for row in m] for m in ms] for ms in mats]


def _walk(rep: "MatrixRep", columns: list, res: list, gens: list, modulus: int,
          d: int, inverse: int = 0, bias: int = 0, outside: int = 0) -> bool:
    """One walk of the Cayley graph of rep's group over its residues in a
    ring of `kronecker_residues`, edge el_i -> el_i s_k in the enumeration
    order of (i, k): res holds D rho(el) mod M for each el reached so far,
    and gens D rho(s) mod M.  An edge to the next new position is a tree
    edge: R(el_i) R(s_k) D^-1 (inverse = D^-1 mod M) is appended, and False
    returned if it fails the range test (bias, outside) of `kronecker_window`
    (over complete images, no edge is one).  Every other edge of a rep not
    checked yet, D rho(el_i) D rho(s_k) = D D rho(el_j), is checked, the
    first that fails raises, and a walk that ends marks the rep checked."""
    # rho(s) = D rho(s) D^-1 mod M: one sum of d products per tree entry
    tree = [list(zip(*[[t * inverse % modulus for t in row] for row in m])) for m in gens]
    gen_cols = [list(zip(*m)) for m in gens]
    for i, targets in enumerate(zip(*columns)):
        for k, j in enumerate(targets):
            if j == len(res):
                image = [[(sum(map(mul, row, col)) + bias) % modulus for col in tree[k]]
                         for row in res[i]]
                if any(t & outside for row in image for t in row):
                    return False
                res.append([[t - bias for t in row] for row in image])
            elif not rep._checked and any((sum(map(mul, row, col)) - d * t) % modulus
                                          for row, target in zip(res[i], res[j])
                                          for col, t in zip(gen_cols[k], target)):
                raise InconsistentRepError("images are not a homomorphism at element "
                                           + rep.group.elements[j].cycle_string())
    rep._checked = True
    return True


def _ring(reps: Sequence["MatrixRep"], bound: Callable[[int, int], int] = lambda a, d: 0
          ) -> tuple[int, int, list[list[list[list[int]]]]]:
    """The reps' images in one ring of `kronecker_residues`: (M, D, [D rho(el)
    mod M for each el in enumeration order, for each rep]).  Its one `_walk`
    per rep, on the group's `columns`, makes every image and checks every
    Cayley edge of each rep not checked yet, and raises at the first that
    fails.  The caller states what else the ring decides as bound(A', D),
    with A' a bound on the 1-norm of every D rho(el).

    The ring is built from the images of the identity and the generators,
    A_s their largest D-scaled 1-norm, under the guess that every D rho(el)
    has its n = phi(L) coefficients in [-2^k, 2^k), k from
    `_coefficient_bits`; A' = n 2^k.  Along each tree edge, R(el s) =
    R(el) R(s) D^-1 mod M, and R(el s) must pass the range test of
    `kronecker_window`, one add and one AND, which makes it the image of an
    algebraic integer beta with those coefficients, so ||beta||_1 <= A'.
    By induction from R(1) = D 1: if R(el) is the image of D rho(el), then
    D beta - D rho(el) D rho(s) maps to 0 and has 1-norm at most
    D A' + d A' A_s, which the ring's bound covers, so it is 0 and
    beta = D rho(el s).  So A' is a proven bound with no depth in it, and
    each other edge, D rho(el) D rho(s) = D D rho(el s), whose two images
    the walk has already made and tested, is decided under it.

    If a residue fails (an image whose denominator passes the generators'
    D, or a coefficient past 2^k), or D has no inverse mod M (M is odd, so
    only an odd D can share a factor with it), the ring is built once more,
    from the exact images along the tree, with A' = A_s = the A read off
    them, and the same walk runs over them."""
    group = reps[0].group
    dim = max(rep.dim for rep in reps)

    def stated(a: int, a_s: int, d: int) -> int:
        return max(d * a + dim * a * a_s, bound(a, d))

    roots = [[mat_identity(rep.dim), *rep.images] for rep in reps]
    modulus, d, b, n, flat, _ = kronecker_residues(
        [v for mats in roots for m in mats for row in m for v in row],
        lambda a_s, d, n: stated(n << _coefficient_bits(d), a_s, d))
    rings = [([root], gens) for root, *gens in _shaped(flat, roots)]
    try:
        guess = pow(d, -1, modulus), *kronecker_window(b, n, _coefficient_bits(d))
    except ValueError:  # an odd D that shares a factor with M
        guess = None
    if guess is None or not all(_walk(rep, group.columns, res, gens, modulus, d, *guess)
                                for rep, (res, gens) in zip(reps, rings)):
        exact = [[*rep._exact_images().values(), *rep.images] for rep in reps]
        modulus, d, _, _, flat, _ = kronecker_residues(
            [v for mats in exact for m in mats for row in m for v in row],
            lambda a, d, n: stated(a, a, d))
        rings = [(mats[:group.order], mats[group.order:]) for mats in _shaped(flat, exact)]
        for rep, (res, gens) in zip(reps, rings):
            _walk(rep, group.columns, res, gens, modulus, d)
    return modulus, d, [res for res, _ in rings]


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
        if self.dim < 1:
            raise ValueError("generator images must have dimension at least 1")
        for m in self.images:
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValueError("generator images must be square of equal size")
            if mat_det(m).is_zero():
                raise InconsistentRepError("generator image is singular")
        self._checked = False  # every Cayley edge holds
        self._exact: dict[Perm, CycloMatrix] | None = None

    def extend_to_group(self) -> "MatrixRep":
        """Check that the images define a homomorphism on every Cayley-graph
        edge, in the residue ring of `_ring`, which makes exact images only
        when its guess fails; raises at the first edge, in enumeration
        order, where two words for the same element disagree."""
        if not self._checked:
            _ring([self])
        return self

    @property
    def full_images(self) -> dict[Perm, CycloMatrix]:
        """Every element's exact image, in enumeration order, once the
        images are checked."""
        return self.extend_to_group()._exact_images()

    def _exact_images(self) -> dict[Perm, CycloMatrix]:
        """The one routine that makes exact images, once: rho(el s) =
        rho(el) rho(s) along the tree edges of the group's `columns`, |G| - 1
        products."""
        if self._exact is None:
            full = [mat_identity(self.dim)]
            for i, targets in enumerate(zip(*self.group.columns)):
                for j, image in zip(targets, self.images):
                    if j == len(full):
                        full.append(mat_mul(full[i], image))
            self._exact = dict(zip(self.group.elements, full))
        return self._exact

    def image(self, el: Perm) -> CycloMatrix:
        images = self.full_images
        if el not in images:
            raise GroupMismatchError(f"element {el.cycle_string()} not in group")
        return images[el]

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
    tuples; for one rep (rep1 is rep2, or their generator images are equal)
    the expected value is delta_ij delta_lm / dim, across distinct
    irreducibles it is 0.  Both reps' images are made in one ring of `_ring`
    (which checks each rep's Cayley edges first, and one rep once), and each
    pairing is decided there as n1 sum_t D a_il(t) D b_mj(t^-1) = |G| D^2 or
    0; lists every violation with its exact value.  The reps' groups must
    be equal (`PermGroup`'s equality)."""
    group = rep1.group
    if group != rep2.group:
        raise GroupMismatchError("representations of different groups")
    same = rep1 is rep2 or rep1.images == rep2.images
    order, n1, n2 = group.order, rep1.dim, rep2.dim
    modulus, d, res = _ring([rep1] if same else [rep1, rep2],
                            lambda a, d: n1 * order * a * a + order * d * d)
    inverses = group.conjugacy_classes().inverse_position
    # D a_il(t) and D b_mj(t^-1) mod M, as vectors over t in enumeration order
    res2 = list(map(res[-1].__getitem__, inverses))
    a_vecs = [[[r[i][l] for r in res[0]] for l in range(n1)] for i in range(n1)]
    b_vecs = [[[r[m][j] for r in res2] for j in range(n2)] for m in range(n2)]
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
                        full1 = rep1.full_images.values()
                        full2 = list(rep2.full_images.values())
                        value = Fraction(1, order) * dot([t[i][l] for t in full1],
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
