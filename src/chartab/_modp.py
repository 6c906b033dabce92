"""Number theory and dense linear algebra over a prime field F_p.

Matrices are lists of lists of ints reduced mod p, multiplied by
accumulating whole rows.  One incremental row reduction, `_dependencies`,
gives the eigen-splitting of tablegen both things it needs: left null spaces
(the dependencies among the rows of a matrix) and the minimal polynomial of
one vector (the first dependency of its Krylov sequence).
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: multiplicity}; empty
    for n < 2."""
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


def _dependencies(rows, p: int):
    """Yield (i, c) for each row i of `rows` that depends on the rows before
    it: c @ rows = 0, c[i] = 1 and c has length i + 1.

    The rows, which may be a lazy iterable, are reduced one at a time
    against an echelon basis of the earlier independent rows; each basis row
    carries its combination of the input rows after its own entries.  Only
    independent rows enter those combinations, so c is 0 at every other
    dependent row.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot, row + combination)
    for i, row in enumerate(rows):
        n = len(row)
        r = [x % p for x in row] + [0] * i + [1]
        for piv, b in basis:
            c = r[piv]
            if c:
                r[:len(b)] = [(x - c * y) % p for x, y in zip(r, b)]
        piv = next((j for j in range(n) if r[j]), None)
        if piv is None:
            yield i, r[n:]
        else:
            inv = pow(r[piv], p - 2, p)
            basis.append((piv, [x * inv % p for x in r]))


def nullspace_rows(a: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """A basis of the rows v with v @ a = 0, and the row indices at which
    that basis is the identity, ascending.  The rows of a are reduced last
    first, so there is one v per row i that depends on the rows after it,
    with v[i] = 1 and v 0 before i and at every other such row: the basis is
    in reduced row echelon form, the one basis the null space alone fixes."""
    n = len(a)
    deps = list(_dependencies(a[::-1], p))[::-1]
    return [[0] * (n - len(c)) + c[::-1] for _, c in deps], [n - 1 - i for i, _ in deps]


def poly_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def minimal_polynomial(a: Matrix, v: list[int], p: int) -> list[int] | None:
    """Minimal polynomial of the vector v under the square matrix a over F_p:
    the monic f of least degree with v f(a) = 0 (coefficients ascending).

    f is the first dependency of the Krylov vectors v, va, ..., va^n for v
    of length n, made one at a time as the reduction asks for them; n + 1
    vectors of length n are dependent, so None means a fault in the
    reduction.  f divides the minimal polynomial of a, and equals it when a
    is diagonalizable and v has a nonzero component on each of its
    eigenspaces.
    """
    def krylov():
        w = v
        yield w
        for _ in v:
            w = _row_times(w, a, p)
            yield w

    return next((c for _, c in _dependencies(krylov(), p)), None)
