"""Number theory and dense linear algebra over a prime field F_p.

Matrices are lists of lists of ints reduced mod p, multiplied by
accumulating whole rows.  The eigen-splitting of tablegen needs one thing
beyond Gaussian elimination: the minimal polynomial of a single (seeded,
random) vector, found by incremental elimination of its Krylov sequence.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: multiplicity}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p."""
    if p == 2:
        return 1
    factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found mod {p}")


def element_of_order(e: int, p: int) -> int:
    """A fixed element of exact multiplicative order e mod p (requires e | p-1)."""
    if (p - 1) % e != 0:
        raise ValueError(f"{e} does not divide {p}-1")
    return pow(primitive_root(p), (p - 1) // e, p)


# -- matrices over F_p ----------------------------------------------------------

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_times(v: list[int], b: Matrix, p: int) -> list[int]:
    """The row vector v b, accumulated row by row of b, reduced once per entry."""
    acc = [0] * len(b[0])
    for vk, bk in zip(v, b):
        if vk:
            acc = [x + vk * y for x, y in zip(acc, bk)]
    return [x % p for x in acc]


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    return [_row_times(row, b, p) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(a: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices; zero rows dropped."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] % p != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % p != 0:
                factor = m[i][c]
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def nullspace_rows(a: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Rows v with v @ a = 0 (a basis of the left null space, in RREF) and
    their pivot columns, as `rref` gives them."""
    reduced, pivots = rref(transpose(a), p)
    n = len(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-reduced[r][f]) % p
        basis.append(v)
    return rref(basis, p)


def poly_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def minimal_polynomial(a: Matrix, v: list[int], p: int) -> list[int]:
    """Minimal polynomial of the vector v under the square matrix a over F_p:
    the monic f of least degree with v f(a) = 0 (coefficients ascending).

    The Krylov vectors v, va, va^2, ... are reduced one at a time against an
    echelon basis of the earlier ones; each basis row carries its combination
    of Krylov vectors, so the first vector that reduces to zero gives f.  f
    divides the minimal polynomial of a, and equals it for a generic v.
    """
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot, row, combination)
    w = [x % p for x in v]
    while True:
        row = w
        combo = [0] * len(basis) + [1]
        for piv, brow, bcombo in basis:
            c = row[piv]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, brow)]
                for i, y in enumerate(bcombo):
                    combo[i] = (combo[i] - c * y) % p
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            return combo
        inv = pow(row[piv], p - 2, p)
        basis.append((piv, [x * inv % p for x in row], [x * inv % p for x in combo]))
        w = _row_times(w, a, p)
