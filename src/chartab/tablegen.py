"""Exact character tables via the class-matrix eigenvalue method.

Pipeline: class-multiplication constants -> prime choice -> simultaneous
eigenvectors of the class matrices over F_p, found by splitting F_p^h with
one class matrix after another (these realize the central characters
lambda_ij = r_j chi_i(g_j) / n_i) -> degree recovery from the
row orthogonality relation -> lifting of eigenvalue multiplicities to exact
cyclotomic values by a mod-p discrete Fourier transform over each element
order.  Everything downstream of the prime field is exact.
"""

from __future__ import annotations

import math
import random
from operator import mul

from . import _modp as mp
from .classfun import ClassFunction
from .cyclo import Cyclo
from .permgroup import PermGroup, Perm, ResourceCapError

SPLIT_SEED = 0x5EED
MAX_SPLIT_DRAWS = 8  # random vectors tried per subspace split
PRIME_LIMIT = 2**31


class TableConstructionError(RuntimeError):
    """Internal failure in the table pipeline (bad split, lift, or degree)."""


class ClassConstants:
    """Class-multiplication constants a[j][k][l] with c_j c_k = sum_l a_jkl c_l."""

    def __init__(self, h: int, a: list[list[list[int]]],
                 sizes: tuple[int, ...], inverse_class: list[int]):
        self.h = h
        self.a = a
        self.sizes = sizes
        self.inverse_class = inverse_class


def class_constants(g: PermGroup) -> ClassConstants:
    """a_jkl = #{x in C_j : x^-1 g_l in C_k}, by membership lookup."""
    data = g.conjugacy_classes()
    h = len(data)
    index = data.member_index
    a = [[[0] * h for _ in range(h)] for _ in range(h)]
    reps = data.representatives
    for j, cl_j in enumerate(data.classes):
        row = a[j]
        for x in cl_j.members:
            x_inv = x.inv()
            for l, g_l in enumerate(reps):
                row[index[x_inv * g_l]][l] += 1
    return ClassConstants(h, a, data.sizes, list(data.inverse_class))


def choose_prime(g: PermGroup) -> int:
    """Smallest prime p with p = 1 (mod exponent) and p > 2 sqrt(|G|)."""
    e = g.exponent
    order = g.order
    p = e + 1 if e > 1 else 2
    step = e if e > 1 else 1
    while p <= PRIME_LIMIT:
        if p * p > 4 * order and mp.is_prime(p):
            return p
        p += step
    raise ResourceCapError(f"no suitable prime found below cap {PRIME_LIMIT}")


def _split_space(rows: mp.Matrix, pivots: list[int], mat: mp.Matrix,
                 p: int, rng: random.Random) -> list[tuple[mp.Matrix, list[int]]]:
    """Refine an invariant subspace (row basis in RREF) into eigenspaces of
    one class matrix; returns the space unchanged when the matrix acts on it
    as a scalar.

    A row r of the space maps to r mat^T, whose coordinates in the RREF basis
    are its entries at the pivot columns, so only the pivot rows of mat enter.

    The eigenvalues are the roots of the minimal polynomial of one vector v
    of coordinates drawn from rng.  Over a good prime the class matrices are
    diagonalizable, so that polynomial has distinct roots in F_p (fewer
    roots than its degree raises at once), and it misses an eigenvalue only
    when v has no component in that eigenspace; the eigenspaces then fall
    short of the space, and a fresh v is drawn, at most MAX_SPLIT_DRAWS
    times.
    """
    d = len(rows)
    coords = mp.mat_mul(rows, mp.transpose([mat[c] for c in pivots]), p)
    for _ in range(MAX_SPLIT_DRAWS):
        ann = mp.minimal_polynomial(coords, [rng.randrange(p) for _ in range(d)], p)
        eigvals = []
        for x in range(p):
            if mp.poly_eval(ann, x, p) == 0:
                eigvals.append(x)
                if len(eigvals) == len(ann) - 1:
                    break
        if len(eigvals) < len(ann) - 1:
            raise TableConstructionError(
                f"class matrix not diagonalizable over F_{p} "
                f"(subspace dimension {d}, bad prime)"
            )
        if len(eigvals) == 1:
            lam = eigvals[0]
            if all(coords[i][j] == (lam if i == j else 0)
                   for i in range(d) for j in range(d)):
                return [(rows, pivots)]
            continue
        out = []
        total_dim = 0
        for lam in eigvals:
            shifted = [
                [(coords[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                for i in range(d)
            ]
            sub = mp.mat_mul(mp.nullspace_rows(shifted, p), rows, p)
            sub_rref, sub_pivots = mp.rref(sub, p)
            total_dim += len(sub_rref)
            out.append((sub_rref, sub_pivots))
        if total_dim == d:
            return out
    raise TableConstructionError(
        f"class matrix not diagonalizable over F_{p} (subspace dimension {d}: "
        f"{MAX_SPLIT_DRAWS} random vectors did not span its eigenspaces)"
    )


def modp_eigenbasis(cc: ClassConstants, p: int) -> list[list[int]]:
    """Simultaneous eigenvectors of all class matrices over F_p, each
    normalized so its identity-class coordinate is 1.

    F_p^h is split by the class matrices one after another.  For a prime
    with p = 1 (mod exponent), p does not divide |G|, so the central
    characters stay distinct mod p and the class matrices alone separate
    them into lines.  Every random draw comes from one
    random.Random(SPLIT_SEED) stream, so the result is the same on every
    run."""
    h = cc.h
    rng = random.Random(SPLIT_SEED)
    spaces = [(mp.identity(h), list(range(h)))]
    for j in range(1, h):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        refined = []
        for rows, pivots in spaces:
            if len(rows) == 1:
                refined.append((rows, pivots))
            else:
                refined.extend(_split_space(rows, pivots, cc.a[j], p, rng))
        spaces = refined
    if any(len(rows) > 1 for rows, _ in spaces):
        raise TableConstructionError(
            f"failed to separate eigenspaces over F_{p} (bad prime)"
        )

    vectors = []
    for rows, _ in spaces:
        v = rows[0]
        if v[0] == 0:
            raise TableConstructionError(
                "eigenvector vanishes on the identity class"
            )
        inv = pow(v[0], p - 2, p)
        vectors.append([x * inv % p for x in v])
    return vectors


def degrees_from_eigen(vectors: list[list[int]], cc: ClassConstants,
                       p: int, order: int) -> list[int]:
    """Recover each degree from n_i^2 = |G| / sum_j lambda_ij lambda_ij* / r_j,
    taking the residue square root in (0, p/2)."""
    degrees = []
    for v in vectors:
        s = 0
        for j in range(cc.h):
            r_inv = pow(cc.sizes[j] % p, p - 2, p)
            s = (s + v[j] * v[cc.inverse_class[j]] % p * r_inv) % p
        if s == 0:
            raise TableConstructionError("degenerate orthogonality sum")
        n_sq = order % p * pow(s, p - 2, p) % p
        root = mp.sqrt_mod(n_sq, p)
        if root is None or root == 0:
            raise TableConstructionError(f"degree residue {n_sq} has no square root")
        degrees.append(min(root, p - root))
    if sum(n * n for n in degrees) != order:
        raise TableConstructionError(
            f"recovered degrees {sorted(degrees)} violate sum of squares = {order}"
        )
    return degrees


def _row_sort_key(values: tuple[Cyclo, ...]):
    key = [values[0].as_rational()]
    for v in values:
        fv = v.to_float()
        key.append((-int(round(fv.real * 1e9)), -int(round(fv.imag * 1e9))))
    return tuple(key)


class CharacterTable:
    """The square table of irreducible characters in canonical order:
    rows by ascending degree (ties by descending value key), columns in the
    group's canonical class order."""

    def __init__(self, group: PermGroup, rows: list[ClassFunction]):
        data = group.conjugacy_classes()
        if len(rows) != len(data):
            raise TableConstructionError(
                f"table is not square: {len(rows)} rows, {len(data)} classes"
            )
        self.group = group
        self.class_data = data
        self.rows = sorted(rows, key=lambda r: _row_sort_key(r.values))
        self.degrees = tuple(r.values[0].as_rational() for r in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def value_matrix(self) -> list[tuple[Cyclo, ...]]:
        return [row.values for row in self.rows]

    def same_abstract_table(self, other: "CharacterTable") -> bool:
        """Abstract-table equality: canonical value matrices and class-size
        vectors agree.  Does not imply the groups are isomorphic."""
        if self.class_data.sizes != other.class_data.sizes:
            return False
        if len(self.rows) != len(other.rows):
            return False
        return all(
            a == b
            for ra, rb in zip(self.value_matrix(), other.value_matrix())
            for a, b in zip(ra, rb)
        )

    def to_json(self) -> dict:
        return {
            "group": self.group.spec,
            "order": self.group.order,
            "classes": [
                {
                    "rep_cycles": cl.representative.cycle_string(),
                    "size": cl.size,
                    "element_order": cl.element_order,
                }
                for cl in self.class_data.classes
            ],
            "characters": [
                {
                    "degree": self.degrees[i],
                    "values": [v.to_json() for v in row.values],
                }
                for i, row in enumerate(self.rows)
            ],
        }

    def __repr__(self) -> str:
        return f"CharacterTable({self.group.spec}, {len(self.rows)}x{len(self.rows)})"


def lift_characters(group: PermGroup, vectors: list[list[int]],
                    degrees: list[int], p: int) -> CharacterTable:
    """Lift mod-p character values to exact cyclotomics.

    For each row and class, with d the order of the class's elements, the
    multiplicities of the d-th roots of unity among the eigenvalues of the
    representing matrix are recovered by an inverse DFT of chi mod p along
    the d entries of the power map of the class, using z^(e/d) for a fixed
    element z of order e in F_p; the DFT matrix is built once per order d.
    The exact value is then sum_t m_t zeta_d^t, in Q(zeta_d), or in Q when
    it is rational.
    """
    data = group.conjugacy_classes()
    e = group.exponent
    z = mp.element_of_order(e, p)
    size_inv = [pow(cl.size % p, p - 2, p) for cl in data.classes]
    # dft[d][t][s] = zeta_d^-ts / d mod p, zeta_d = z^(e/d)
    dft = {}
    for d in set(data.element_orders):
        zd_inv, d_inv = pow(z, (e // d) * (p - 2), p), pow(d, p - 2, p)
        w = [pow(zd_inv, k, p) * d_inv % p for k in range(d)]
        dft[d] = [[w[t * s % d] for s in range(d)] for t in range(d)]
    rows = []
    for n_i, v in zip(degrees, vectors):
        chi = [n_i * x % p * r % p for x, r in zip(v, size_inv)]  # chi mod p
        values = []
        for powers in data.power_class:
            d, along = len(powers), [chi[k] for k in powers]
            exps = [0] * d
            total = 0
            for t, w in enumerate(dft[d]):
                m = sum(map(mul, along, w)) % p
                if m > n_i:
                    raise TableConstructionError(
                        f"lifted multiplicity {m} exceeds degree {n_i}"
                    )
                if m:
                    exps[t] = m
                    total += m
            if total != n_i:
                raise TableConstructionError(
                    f"multiplicities sum to {total}, expected degree {n_i}"
                )
            values.append(Cyclo.from_powers(d, exps))
        rows.append(ClassFunction(group, values))
    return CharacterTable(group, rows)


def build_character_table(g: PermGroup) -> CharacterTable:
    """Full pipeline: constants -> prime -> eigenbasis -> degrees -> lift."""
    cc = class_constants(g)
    p = choose_prime(g)
    vectors = modp_eigenbasis(cc, p)
    degrees = degrees_from_eigen(vectors, cc, p, g.order)
    return lift_characters(g, vectors, degrees, p)


def linear_characters(g: PermGroup) -> list[ClassFunction]:
    """All degree-1 characters, lifted from the abelian quotient G/G'.

    The quotient is peeled into a chain of cyclic extensions; each partial
    character extends in exactly d ways per relative order d, so the count
    is the quotient order [G:G'].
    """
    derived = g.commutator_subgroup()
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for el in g.elements:
        if el in coset_of:
            continue
        idx = len(reps)
        members = [el * t for t in derived.elements]
        for m in members:
            coset_of[m] = idx
        reps.append(min(members))
    n_q = len(reps)

    def qmul(a: int, b: int) -> int:
        return coset_of[reps[a] * reps[b]]

    def qorder(x: int) -> int:
        s, cur = 1, x
        while cur != 0:
            cur = qmul(cur, x)
            s += 1
        return s

    exponent = 1
    for x in range(n_q):
        exponent = math.lcm(exponent, qorder(x))

    covered = [0]
    covered_set = {0}
    chars: list[dict[int, int]] = [{0: 0}]
    while len(covered) < n_q:
        x = next(c for c in range(n_q) if c not in covered_set)
        xpow = [0]
        cur = x
        while cur not in covered_set:
            xpow.append(cur)
            cur = qmul(cur, x)
        d = len(xpow)  # relative order of x; xpow[a] = x^a for a < d
        landing = cur  # x^d, already covered
        new_chars = []
        for chi in chars:
            c = chi[landing]
            if c % d != 0:
                raise TableConstructionError("character extension is unsolvable")
            for t in range(d):
                k = (c // d + t * (exponent // d)) % exponent
                ext = dict(chi)
                for a in range(1, d):
                    for hcoset in covered:
                        ext[qmul(hcoset, xpow[a])] = (chi[hcoset] + a * k) % exponent
                new_chars.append(ext)
        chars = new_chars
        new_covered = list(covered)
        for a in range(1, d):
            for hcoset in covered:
                new_covered.append(qmul(hcoset, xpow[a]))
        covered = new_covered
        covered_set = set(covered)

    data = g.conjugacy_classes()
    out = []
    for chi in chars:
        values = []
        for cl in data.classes:
            # zeta_m^k = zeta_(m/g)^(k/g), g = gcd(k, m): the natural field
            k = chi[coset_of[cl.representative]]
            g_k = math.gcd(k, exponent)
            num = [0] * (exponent // g_k)
            num[k // g_k] = 1
            values.append(Cyclo.from_powers(exponent // g_k, num))
        out.append(ClassFunction(g, values))
    out.sort(key=lambda f: _row_sort_key(f.values))
    return out
