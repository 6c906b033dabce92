"""Exact character tables via the class-matrix eigenvalue method.

Pipeline: prime choice -> simultaneous eigenvectors of the class matrices
over F_p (these realize the central characters lambda_ij = r_j chi_i(g_j) /
n_i): those of the linear characters, the characters of G/G', are seeded as
known lines, and the space of the others, the vectors that sum to 0 over
the classes of each coset of G', is split with one class matrix after
another, each computed as the split reads it -> degrees from the row
orthogonality relation -> lifting of eigenvalue multiplicities to exact
cyclotomic values by a mod-p discrete Fourier transform over each element
order.  Everything downstream of the prime field is exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain, compress
from operator import gt, mul, ne

from . import _modp as mp
from .classfun import ClassFunction
from .cyclo import Cyclo, root_of_unity
from .permgroup import ClassData, GroupMismatchError, PermGroup, ResourceCapError

PRIME_LIMIT = 2**31


class TableConstructionError(RuntimeError):
    """Internal failure in the table pipeline (bad split, lift, or degree)."""


class ClassConstants:
    """Class-multiplication constants a[j][k][l] with c_j c_k = sum_l a_jkl c_l."""

    def __init__(self, h: int, a: list[list[list[int]]], sizes: tuple[int, ...]):
        self.h = h
        self.a = a
        self.sizes = sizes


def class_matrix(data: ClassData, j: int) -> list[list[int]]:
    """The class matrix M_j, row k and column l holding
    a_jkl = #{x in C_j : x^-1 g_l in C_k}, by |C_j| h membership lookups;
    x^-1 runs over the inverse class."""
    h = len(data)
    index = data.member_index
    mat = [[0] * h for _ in range(h)]
    inverses = data.members[data.inverse_class[j]]
    for l, g_l in enumerate(data.representatives):
        for k in map(index.__getitem__, map(g_l.right_mul(), inverses)):
            mat[k][l] += 1
    return mat


def class_constants(g: PermGroup) -> ClassConstants:
    """All h^3 constants, one class matrix per class."""
    data = g.conjugacy_classes()
    h = len(data)
    return ClassConstants(h, [class_matrix(data, j) for j in range(h)], data.sizes)


def choose_prime(g: PermGroup) -> int:
    """Smallest prime p with p = 1 (mod exponent) and p > 2 sqrt(|G|).

    No build fails at this p, so no other prime is tried.  p does not divide
    |G| (every prime that does divides e), so the central characters stay
    distinct mod p and every class matrix is diagonalizable over F_p; F_p
    holds an element of order q = exp(G/G'), a divisor of e, which seeds the
    linear lines; each degree and multiplicity is below sqrt|G| < p/2, so it
    is read off its residue; and the split's column 0 meets every
    eigenspace."""
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
                 p: int, twists=(1,)) -> list[tuple[mp.Matrix, list[int]]]:
    """Split an invariant subspace, on which one class matrix is not a
    scalar, into that matrix's eigenspaces, one for each orbit of its
    eigenvalues under multiplication by `twists`.

    The basis rows are the identity on the pivot columns, row t being 1 at
    pivots[t] and 0 at the other pivots, in any order and with any entries
    elsewhere.  A row r of the space maps to r mat^T, whose coordinates in
    that basis are its entries at the pivot columns, so only the pivot rows
    of mat enter: R mat^T = C R, C = coords.  Each eigenspace is returned in
    the same form.

    The eigenvalues are the roots of the minimal polynomial under C of x,
    column 0 of R (a column, so its Krylov rows run under C^T; C x is the
    column `_acts_as_scalar` reads).  A central character w in the space is
    c R with c C = lam c, and c . x = w[0] = 1: x meets every eigenspace, so
    one pass splits the space.

    `twists` are the values lambda(g_j) at this matrix's class of the
    linear characters lambda that map the space onto itself, a subgroup of
    F_p^* (1 alone by default).  Such a lambda maps the eigenspace of mu
    onto that of lambda(g_j) mu, so only the first eigenvalue of each orbit
    {t mu : t in twists} has its eigenspace computed; 0 is an orbit of its
    own.  A twist of a root that is not a root, or eigenspaces that with
    their orbits fall short of d (a repeated root, one outside F_p, or a
    missed eigenvalue: a bad prime) raise.
    """
    d = len(rows)
    coords = mp.mat_mul(rows, mp.transpose([mat[c] for c in pivots]), p)
    ann = mp.minimal_polynomial(mp.transpose(coords), [r[0] for r in rows], p)
    kept = []  # (first eigenvalue of its orbit, orbit size)
    roots: set[int] = set()
    for lam in range(p):
        if lam not in roots and mp.poly_eval(ann, lam, p) == 0:
            orbit = {t * lam % p for t in twists}
            for mu in orbit:
                if mp.poly_eval(ann, mu, p):
                    raise TableConstructionError(
                        f"F_{p} split: eigenvalue {lam} has the twist {mu}, which is "
                        "not a root of the minimal polynomial (bad prime)"
                    )
            kept.append((lam, len(orbit)))
            roots |= orbit
            if len(roots) == len(ann) - 1:
                break
    out = []
    total_dim = 0
    for lam, orbit_size in kept:
        shifted = [
            [(coords[i][j] - (lam if i == j else 0)) % p for j in range(d)]
            for i in range(d)
        ]
        # null is the identity on the coordinates null_pivots and rows
        # on the columns pivots, so null rows is the identity on the
        # columns pivots[q] for q in null_pivots
        null, null_pivots = mp.nullspace_rows(shifted, p)
        total_dim += len(null) * orbit_size
        out.append((mp.mat_mul(null, rows, p), [pivots[q] for q in null_pivots]))
    if total_dim != d:
        raise TableConstructionError(
            f"class matrix not diagonalizable over F_{p} (subspace dimension {d}, "
            f"eigenspaces and their twists fill {total_dim}: bad prime)"
        )
    return out


def _acts_as_scalar(rows: mp.Matrix, j: int, p: int) -> bool:
    """Whether M_j acts as a scalar on the span of the rows, read off the
    rows: column j is a multiple of column 0.

    A space that is zero at column 0 counts as not scalar, so it goes on to
    the split and the checks after it.  None arises at the prime
    `choose_prime` takes: each space the split holds is spanned by central
    characters, which are 1 at column 0."""
    r_t = next((r for r in rows if r[0]), None)
    if r_t is None:
        return False
    lam = r_t[j] * pow(r_t[0], p - 2, p) % p
    return all((r[j] - lam * r[0]) % p == 0 for r in rows)


def modp_eigenbasis(g: PermGroup, p: int, matrices: dict | None = None) -> list[list[int]]:
    """Simultaneous eigenvectors of all class matrices over F_p, the lines
    of the split, each normalized so its identity-class coordinate is 1.

    The class matrices commute and, for a prime with p = 1 (mod exponent),
    which does not divide |G|, are diagonalized by the central characters
    w_i, which stay distinct mod p: w_i M_j^T = w_i[j] w_i and w_i[0] = 1.
    Those of the linear characters are known lines, w_j = r_j lambda(g_j),
    from `_linear_exponents`: lambda(g_j) = z^(k_j q / e), z of order q =
    exp(G/G') in F_p.  The others are orthogonal to them under B(x, y) =
    sum_j x_j y_inv(j) / r_j, and B(x, w_lambda) = sum_c conj(lambda(c))
    sum_(j in c) x_j over the cosets c of G', so they span exactly the
    vectors that sum to 0 over the classes of each coset.  Two classes share
    a coset when every linear character agrees on them, so the cosets are
    the classes with equal exponent columns, and the space has the basis
    e_j - e_first(c), j not the first class of its coset c, the identity on
    those j.  An abelian group leaves nothing to split.

    That space is split by the class matrices one after another, smallest
    class first, until every space is a line.  Each space held is spanned
    by some of the w_i, so M_j acts on it as the scalar lam exactly when
    r[j] = lam r[0] for every basis row r.  M_j is computed only when some
    space of dimension > 1 fails that test, and only those spaces are
    split.  Lines are unique, so the result, and the split classes read off
    it, are the same whichever matrices split them.  Each matrix computed
    is put in `matrices` by class, when a dict is given.

    A linear lambda twists a central character, chi -> lambda chi, as
    (lambda w)_j = lambda(g_j) w_j, and the twists permute the spaces the
    split holds before class j, the spans of the nonlinear w_i that agree on
    every class before j.  So one space is split per orbit: each space S
    held carries its stabiliser, the twists with lambda S = S (all of them
    for the first space), and its copies, twists that carry it onto the
    spaces it stands for, one per coset of the stabiliser.  When M_j splits
    S, lambda in the stabiliser maps the eigenspace of mu onto that of
    lambda(g_j) mu, so `_split_space` returns one eigenspace per orbit of
    eigenvalues.  A part of eigenvalue mu != 0 keeps the twists with
    lambda(g_j) = 1, and its copies gain one twist of the stabiliser per
    value lambda(g_j); the part of mu = 0 keeps S's stabiliser and copies.
    Each line w stands for c w, c over its copies.  For a perfect group the
    only twist is 1, and every part is kept.

    A line is never 0 at column 0 (w[0] = 1); if one were, it would scale to
    the zero vector, on which `degrees_from_eigen` raises "degenerate
    orthogonality sum".  Split lines and their twists that are not h -
    [G:G'] distinct vectors raise."""
    data = g.conjugacy_classes()
    h = len(data)
    matrices = {} if matrices is None else matrices
    chars, e = _linear_exponents(g)
    q = e // math.gcd(e, *chain.from_iterable(chars))
    if (p - 1) % q:
        raise TableConstructionError(
            f"F_{p} has no element of order q = {q}, the exponent of G/G' (bad prime)"
        )
    z = mp.element_of_order(q, p)
    powers = [pow(z, t, p) for t in range(q)]
    lambdas = [[powers[k * q // e] for k in chi] for chi in chars]  # lambda(g_j) mod p
    linear = [[r * t % p for r, t in zip(data.sizes, c)] for c in lambdas]
    first: dict[tuple[int, ...], int] = {}  # exponent column -> first class of its coset
    heads = [first.setdefault(column, j) for j, column in enumerate(zip(*chars))]
    pivots = [j for j, head in enumerate(heads) if head != j]
    basis = [[1 if l == j else p - 1 if l == heads[j] else 0 for l in range(h)] for j in pivots]
    # (rows, pivots, stabiliser, copies) of each space held, one per orbit
    spaces = [(basis, pivots, lambdas, [[1] * h])] if basis else []
    for j in range(1, h):
        if all(len(rows) == 1 for rows, *_ in spaces):
            break
        is_open = [len(rows) > 1 and not _acts_as_scalar(rows, j, p) for rows, *_ in spaces]
        if not any(is_open):
            continue
        mat = matrices[j] = class_matrix(data, j)
        held = []
        for (rows, piv, stabiliser, copies), split in zip(spaces, is_open):
            if not split:
                held.append((rows, piv, stabiliser, copies))
                continue
            by_value: dict[int, list[int]] = {}  # lambda(g_j) -> the first such lambda
            for t in stabiliser:
                by_value.setdefault(t[j], t)
            # a part of eigenvalue mu != 0 keeps the twists with lambda(g_j) = 1
            # and gains a copy per value; one value, 1, changes neither
            fixed, twisted = stabiliser, copies
            if len(by_value) > 1:
                fixed = [t for t in stabiliser if t[j] == 1]
                twisted = [[a * b % p for a, b in zip(c, t)]
                           for c in copies for t in by_value.values()]
            for sub, sub_pivots in _split_space(rows, piv, mat, p, by_value.keys()):
                if any(r[j] for r in sub):  # mu != 0
                    held.append((sub, sub_pivots, fixed, twisted))
                else:
                    held.append((sub, sub_pivots, stabiliser, copies))
        spaces = held
    if any(len(rows) > 1 for rows, *_ in spaces):
        raise TableConstructionError(
            f"failed to separate eigenspaces over F_{p} (bad prime)"
        )

    lines = []
    for (v,), _, _, copies in spaces:
        inv = pow(v[0], p - 2, p)
        v = [x * inv % p for x in v]
        lines.extend([a * b % p for a, b in zip(c, v)] for c in copies)
    distinct = len(set(map(tuple, lines)))
    if not distinct == len(lines) == h - len(linear):
        raise TableConstructionError(
            f"F_{p} split: {len(lines)} lines with their twists, {distinct} distinct, "
            f"for {h - len(linear)} nonlinear characters (bad prime)"
        )
    return linear + lines


def split_classes(lines: list[list[int]]) -> tuple[int, ...]:
    """The classes, in index order, each of whose columns splits lines that
    agree on every class before it.  Two lines first differ at one of them,
    so they separate the central characters mod p, and in C, and with the
    identity class generate Z(CG) = C^h: a subalgebra that holds 1 and
    separates the coordinates is all of C^h.  That is all `check_all`'s
    central identity asks: for a row, the x with f(xy) = f(x) f(y) for all
    y, f(C_l) = lambda_il, form a subalgebra that holds 1, so it holds a
    generating set exactly when it holds Z(CG): one verdict for every set.
    A table keeps their class matrices for it (`CharacterTable.split_classes`)."""
    labels, blocks, split = [()] * len(lines), 1, []
    for j in range(1, len(lines)):  # one line per class
        if blocks == len(lines):
            break
        finer = [(label, v[j]) for label, v in zip(labels, lines)]
        if len(set(finer)) > blocks:
            labels, blocks = finer, len(set(finer))
            split.append(j)
    return tuple(split)


def degrees_from_eigen(g: PermGroup, vectors: list[list[int]], p: int) -> list[int]:
    """Recover each degree from n_i^2 = |G| / sum_j lambda_ij lambda_ij* / r_j:
    n_i divides |G| and n_i^2 <= |G| < (p/2)^2, so the residue is the square
    of exactly one divisor n of |G| with n^2 <= |G|."""
    data = g.conjugacy_classes()
    order = g.order
    r_inv = [pow(r % p, p - 2, p) for r in data.sizes]
    by_residue = {n * n % p: n for n in range(1, math.isqrt(order) + 1) if order % n == 0}
    degrees = []
    for v in vectors:
        s = sum(map(mul, map(mul, v, r_inv), map(v.__getitem__, data.inverse_class))) % p
        if s == 0:
            raise TableConstructionError("degenerate orthogonality sum")
        n_sq = order % p * pow(s, p - 2, p) % p
        if n_sq not in by_residue:
            raise TableConstructionError(
                f"degree residue {n_sq} is not the square of a divisor of |G| = {order}"
            )
        degrees.append(by_residue[n_sq])
    if sum(n * n for n in degrees) != order:
        raise TableConstructionError(
            f"recovered degrees {sorted(degrees)} violate sum of squares = {order}"
        )
    return degrees


def _indexed(rows: list[ClassFunction]) -> tuple[list[Cyclo], list[list[int]]]:
    """Each distinct value object of the rows once (by identity), first met,
    and each row's values as positions in that list: the index of a table
    made by hand."""
    by_id: dict[int, Cyclo] = {}
    for row in rows:
        by_id.update(zip(map(id, row.values), row.values))
    position = dict(zip(by_id, range(len(by_id))))
    return list(by_id.values()), [list(map(position.__getitem__, map(id, row.values)))
                                  for row in rows]


def _sorted(rows: list[ClassFunction], values: list[Cyclo], cells: Sequence[Sequence[int]]
            ) -> tuple[list[ClassFunction], list[Cyclo], list[list[int]]]:
    """The rows in canonical order, with their index renumbered by first
    appearance in the sorted rows, so it does not depend on how its maker
    numbered the values.  The order is ascending degree, then each value's
    float rounded to 1e-9, descending, then each value's held form (order,
    nums, den): rows whose floats all tie are ordered exactly, never by the
    order they come in.  Each key is made once per value."""
    rounded = [(-int(round(f.real * 1e9)), -int(round(f.imag * 1e9)))
               for f in map(Cyclo.to_float, values)]
    held = [(v.order, v.nums, v.den) for v in values]
    order = sorted(range(len(rows)), key=lambda i: (
        rows[i].values[0].as_rational(),
        *map(rounded.__getitem__, cells[i]), *map(held.__getitem__, cells[i])))
    cells = [cells[i] for i in order]
    first = list(dict.fromkeys(chain.from_iterable(cells)))
    position = dict(zip(first, range(len(first))))
    return ([rows[i] for i in order], list(map(values.__getitem__, first)),
            [list(map(position.__getitem__, row)) for row in cells])


class CharacterTable:
    """The square table of irreducible characters in canonical order:
    rows by ascending degree (ties by `_sorted`'s value keys), columns in the
    group's canonical class order.  `values` holds each distinct value object
    of the rows once, in order of first appearance in the rows, and
    `cells[i][j]` is the position of `rows[i].values[j]` in it: the one index
    of every reader that handles each value once.  `index` is that index of
    the rows as given, from the lift, or else from `_indexed`; the row sort
    renumbers it, so both give the same index on the same rows.  Every row
    is on a group equal to the table's.  A built table also holds
    the lines of the F_p split and the class matrices it read, h^2 ints each,
    until `split_classes` is first read, and then the split classes' alone."""

    def __init__(self, group: PermGroup, rows: list[ClassFunction],
                 index: tuple[list[Cyclo], Sequence[Sequence[int]]] | None = None):
        data = group.conjugacy_classes()
        if len(rows) != len(data):
            raise TableConstructionError(
                f"table is not square: {len(rows)} rows, {len(data)} classes"
            )
        if any(row.group != group for row in rows):
            raise GroupMismatchError("table rows on a different group")
        self.group = group
        self.class_data = data
        self.rows, self.values, self.cells = _sorted(rows, *(index or _indexed(rows)))
        self.degrees = tuple(r.values[0].as_rational() for r in self.rows)
        # the split's lines and its matrices by class, kept by `build_character_table`
        self._lines, self._read = None, {}
        self._split_matrices = None  # S's class matrices, by class, once read

    @property
    def split_classes(self) -> tuple[int, ...]:
        """`split_classes` of the group's lines, never read off the rows,
        computed on first use: from the lines `build_character_table` kept,
        and for a table made any other way from a split run once, here.  The
        table keeps each one's class matrix, the split's or, for a class the
        split did not read, one made here, and drops the lines and the rest."""
        if self._split_matrices is None:
            read = self._read
            lines = self._lines or modp_eigenbasis(self.group, choose_prime(self.group), read)
            self._split_matrices = {j: read[j] if j in read else class_matrix(self.class_data, j)
                                    for j in split_classes(lines)}
            self._lines = self._read = None
        return tuple(self._split_matrices)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"CharacterTable({self.group.spec}, {len(self.rows)}x{len(self.rows)})"


def lift_characters(group: PermGroup, vectors: list[list[int]],
                    degrees: list[int], p: int) -> CharacterTable:
    """Lift mod-p character values to exact cyclotomics, one class (a column
    of chi mod p) at a time.

    A class j of elements g of order d is rational when it holds every
    generator g^s of <g>, gcd(s, d) = 1 (power_class[j][s] == j).  There
    chi(g) is an integer with |chi(g)| <= n_i < p/2: chi mod p, centred.
    Each such column is checked by the integer identity sum_i n_i chi_i(g)
    = 0 for g != 1, which a single wrong value breaks.

    On every other class, the multiplicities m_t of the d-th roots of unity
    among the eigenvalues of the representing matrix are recovered by an
    inverse DFT of chi mod p along the d entries of the class's power map,
    using zeta_d = z^(e/d) for a fixed element z of order e in F_p; the DFT
    matrix is built once per order d.  The exact value is sum_t m_t
    zeta_d^t, in Q(zeta_d), or in Q when it is rational.  Each class is
    lifted from its own power map: chi(g^s) = sigma_s(chi(g)) holds of the
    result, but no value is derived from another class's.  A class's tuples
    `along` are the rows of its power classes' columns side by side.

    A table holds few distinct values, so each is made once per call and
    numbered as it is made: the rational value of each c, and the DFT of
    each tuple `along` (which, with d and p, fixes it).  Each distinct value
    is one object, numbered in one dict: a rational value by its int, which
    a DFT result that is rational looks up too, and an irrational one by
    (order, nums), so two tuples with one value share it.  The table is
    handed these values and each entry's number, its index.

    The bounds are checked on every entry, against that row's degree, and a
    whole column at a time; the first failure is reported in row order (a
    row's rational classes before its others), and a column's sum only when
    no entry fails.
    """
    data = group.conjugacy_classes()
    e = group.exponent
    if (p - 1) % e:
        raise TableConstructionError(
            f"lift: exponent e = {e} does not divide p - 1 for p = {p}, "
            "so F_p has no element of order e"
        )
    z = mp.element_of_order(e, p)
    size_inv = [pow(size % p, p - 2, p) for size in data.sizes]
    rational, nonrational = [], []
    for j, powers in enumerate(data.power_class):
        d = len(powers)
        if all(powers[s] == j for s in range(1, d) if math.gcd(s, d) == 1):
            rational.append(j)
        else:
            nonrational.append(j)
    # dft[d][t][s] = zeta_d^-ts / d mod p, zeta_d = z^(e/d)
    dft = {}
    for d in {len(data.power_class[j]) for j in nonrational}:
        zd_inv, d_inv = pow(z, (e // d) * (p - 2), p), pow(d, p - 2, p)
        w = [pow(zd_inv, k, p) * d_inv % p for k in range(d)]
        dft[d] = [[w[t * s % d] for s in range(d)] for t in range(d)]
    half = p // 2
    # chi_i(g_j) = n_i v_i[j] / r_j mod p, down each column j
    columns = [[x * r % p for x in map(mul, degrees, column)]
               for column, r in zip(zip(*vectors), size_inv)]
    values: list[Cyclo] = []  # each distinct value, by its number
    made: dict = {}  # c, or (order, nums) of an irrational value -> its number
    dft_values: dict[tuple, tuple[int, int]] = {}  # along -> (sum m_t, number)
    numbers: list = [None] * len(columns)  # each column's entries as numbers
    # the first failing row and its message: each column looks only above it
    first, fault = len(degrees), None
    column_sum = None  # the message of the first rational column whose sum fails
    for j in rational:
        centred = [c - p if c > half else c for c in columns[j]]
        i = next(compress(range(first), map(gt, map(abs, centred), degrees)), first)
        if i < first:
            first, fault = i, f"rational value {centred[i]} exceeds degree {degrees[i]}"
        # the regular character vanishes off the identity
        if j and column_sum is None and (total := sum(map(mul, degrees, centred))):
            column_sum = f"column {j}: sum of degree times value is {total}, not 0"
        numbers[j] = list(map(made.get, centred))
        if None in numbers[j]:  # a value not met before
            for c in dict.fromkeys(centred):
                if c not in made:
                    made[c] = len(values)
                    values.append(Cyclo.from_rational(c))
            numbers[j] = list(map(made.__getitem__, centred))
    for j in nonrational:
        alongs = list(zip(*map(columns.__getitem__, data.power_class[j])))
        entries = list(map(dft_values.get, alongs))
        if None in entries:  # a tuple not met before: one DFT per distinct one
            for along in dict.fromkeys(alongs):
                if along not in dft_values:
                    d = len(along)
                    exps = [sum(map(mul, along, w)) % p for w in dft[d]]
                    value = Cyclo(d, exps)
                    key = value.nums[0] if value.order == 1 else (value.order, value.nums)
                    if key not in made:
                        made[key] = len(values)
                        values.append(value)
                    dft_values[along] = sum(exps), made[key]
            entries = list(map(dft_values.__getitem__, alongs))
        totals, numbers[j] = zip(*entries)
        # each m_t is in [0, p), so a sum of n_i bounds every m_t by n_i
        i = next(compress(range(first), map(ne, totals, degrees)), first)
        if i < first:
            first, fault = i, f"multiplicities sum to {totals[i]}, expected degree {degrees[i]}"
    if fault or column_sum:
        raise TableConstructionError(fault or column_sum)
    cells = list(zip(*numbers))
    rows = [ClassFunction._of(group, tuple(map(values.__getitem__, row))) for row in cells]
    return CharacterTable(group, rows, (values, cells))


def build_character_table(g: PermGroup) -> CharacterTable:
    """Full pipeline: prime -> eigenbasis -> degrees -> lift."""
    p = choose_prime(g)
    read: dict[int, list[list[int]]] = {}
    vectors = modp_eigenbasis(g, p, read)
    degrees = degrees_from_eigen(g, vectors, p)
    table = lift_characters(g, vectors, degrees, p)
    table._lines, table._read = vectors, read
    return table


def _linear_exponents(g: PermGroup) -> tuple[list[list[int]], int]:
    """The linear characters, each as its exponents k_j on the classes, its
    value at g_j being zeta_e^k_j, e the exponent of G; and e.

    They are extended on the classes themselves along G' = H_0 <= H_1 <=
    ... <= G, H_i = <H_(i-1), s_i> for the generators s_i.  Each H_i holds
    G', so it is normal and a union of classes, and so is each coset H s^a.
    A character on H is held as a dict from H's classes to exponents; on
    H_0 it is 0.

    For a generator s, d is the least power with s^d in H, and class j
    outside H lies in H s^a, 0 < a < d, when g_j s^-a is in H.  Each
    character k on H extends in exactly d ways, by a value zeta_e^t at s
    with d t = k(s^d) (mod e), so the count is [G:G'], and then k(g_j) =
    k(g_j s^-a) + a t.
    """
    data = g.conjugacy_classes()
    index = data.member_index
    e = g.exponent
    chars = [dict.fromkeys(g.commutator_subgroup().classes, 0)]
    for s in g.generators:
        in_h = chars[0]  # every character is held on the classes of H
        inv_powers = [s.inv()]  # s^-1, s^-2, ...
        while (landing := index[inv_powers[-1]]) not in in_h:
            inv_powers.append(inv_powers[-1] * inv_powers[0])
        d = len(inv_powers)  # landing is the class of s^-d
        times = [s_inv_a.right_mul() for s_inv_a in inv_powers[:-1]]
        new = {}  # class j -> (a, class of g_j s^-a) for g_j in H s^a
        for j, g_j in enumerate(data.representatives):
            if j not in in_h:
                for a, times_s_inv_a in enumerate(times, 1):
                    l = index[times_s_inv_a(g_j)]
                    if l in in_h:
                        new[j] = a, l
                        break
        # d t = k(s^d) = -k(s^-d) (mod e) has d solutions t mod e: k is the
        # restriction of a character of the abelian G/G', so k(s^d) = d k(s)
        chars = [{**k, **{j: (k[l] + a * t) % e for j, (a, l) in new.items()}}
                 for k in chars
                 for t in range(-k[landing] % e // d, e, e // d)]
    return [[k[j] for j in range(len(data))] for k in chars], e


def linear_characters(g: PermGroup) -> list[ClassFunction]:
    """All degree-1 characters: the homomorphisms G -> C^* trivial on G',
    read off `_linear_exponents`.  A value zeta_e^k is made once per
    distinct k."""
    chars, e = _linear_exponents(g)
    roots = {}  # k -> zeta_e^k = zeta_(e/g)^(k/g), g = gcd(k, e): the natural field
    for k in {k for chi in chars for k in chi}:
        g_k = math.gcd(k, e)
        roots[k] = root_of_unity(e // g_k, k // g_k)
    rows = [ClassFunction._of(g, tuple(map(roots.__getitem__, chi))) for chi in chars]
    return _sorted(rows, *_indexed(rows))[0]
