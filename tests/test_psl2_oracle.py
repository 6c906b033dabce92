"""The tables of PSL(2, q), q a prime from 5 to 31, against the closed
formulas of Jordan and Schur, which share no code with the class-matrix
method.

The group acts on the projective line {0, ..., q - 1, inf}, inf = q, by
x -> x + 1, x -> a^2 x (a a primitive root mod q) and x -> -1/x.  With
eps = (-1)^((q - 1) / 2) its classes are the identity, two unipotent
classes of order q, the nontrivial powers t^k of the split torus, cyclic of
order (q - 1) / 2 and generated by t: x -> a^2 x, up to k ~ -k, and the
powers s^k of a nonsplit torus, cyclic of order (q + 1) / 2, up to k ~ -k.
Its characters, with rho and sigma roots of unity of those two orders
(Fulton and Harris, Representation Theory, section 5.2; Dornhoff, Group
Representation Theory, Part A, section 38):

- the trivial character and the Steinberg character of degree q, which is
  0 on the unipotents, 1 on the split torus and -1 on the nonsplit one;
- principal series of degree q + 1: 1 on the unipotents, rho^ik + rho^-ik
  at t^k and 0 on the nonsplit torus, for 0 < i < (q - 1) / 4;
- discrete series of degree q - 1: -1 on the unipotents, 0 on the split
  torus and -(sigma^jk + sigma^-jk) at s^k, for 0 < j < (q + 1) / 4;
- two characters of half degree, (q + eps) / 2: (eps +- sqrt(eps q)) / 2 on
  one unipotent class and (eps -+ sqrt(eps q)) / 2 on the other, and
  (-1)^k on the split torus (eps = 1) or -(-1)^k on the nonsplit one
  (eps = -1), 0 on the other torus.

sqrt(eps q) is the quadratic Gauss sum, so every value is an exact `Cyclo`.
Classes are matched through the group's `member_index`; any generator of a
torus serves, since another one permutes the series among themselves, and
the two unipotent classes swap the two half-degree rows, so the rows are
compared as a multiset.
"""

import pytest

from chartab.analysis import check_all
from chartab.cyclo import Cyclo, root_of_unity
from chartab.permgroup import Perm, PermGroup
from chartab.tablegen import build_character_table
from conftest import rows_match_as_sets

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


def moebius(q, f):
    """The permutation of the projective line that f, a map of F_q
    extended to inf by its caller, makes."""
    return Perm(f(x) for x in range(q + 1))


def inverse(x, q):
    return pow(x, q - 2, q)


def psl2(q):
    """PSL(2, q) on the projective line, with t: x -> a^2 x, u: x -> x + 1
    and a generator s of a nonsplit torus, x -> c - 1/x for the least c
    that makes it of order (q + 1) / 2."""
    a = next(a for a in range(2, q) if len({pow(a, k, q) for k in range(q - 1)}) == q - 1)
    u = moebius(q, lambda x: x if x == q else (x + 1) % q)
    t = moebius(q, lambda x: x if x == q else a * a * x % q)
    w = moebius(q, lambda x: {0: q, q: 0}.get(x, -inverse(x, q) % q))
    s = next(s for c in range(q)
             for s in [moebius(q, lambda x: {0: q, q: c}.get(x, (c - inverse(x, q)) % q))]
             if s.order() == (q + 1) // 2)
    return PermGroup(q + 1, [u, t, w]), t, u, s


def gauss_sum(q):
    """sum_a (a / q) zeta_q^a, whose square is eps q."""
    root = sum(((1 if pow(x, (q - 1) // 2, q) == 1 else -1) * root_of_unity(q, x)
                for x in range(1, q)), Cyclo.zero())
    assert root * root == (-1) ** ((q - 1) // 2) * q
    return root


def labels(g, t, u, s):
    """Each class's label: ("1", 0), ("u", +-1), the class of u taking +1,
    ("split", k) for t^k or ("nonsplit", k) for s^k."""
    data = g.conjugacy_classes()
    q = g.degree - 1
    found = {0: ("1", 0)}
    for kind, gen, m in [("split", t, (q - 1) // 2), ("nonsplit", s, (q + 1) // 2)]:
        for k in range(1, m):
            found.setdefault(data.member_index[gen ** k], (kind, k))
    unipotent = [j for j, n in enumerate(data.element_orders) if n == q]
    assert len(unipotent) == 2 and data.member_index[u] in unipotent
    for j in unipotent:
        found[j] = ("u", 1 if j == data.member_index[u] else -1)
    assert sorted(found) == list(range(len(data)))
    return [found[j] for j in range(len(data))]


def psl2_rows(q, classes):
    """The closed-formula rows, each value read off its class's label."""
    eps = (-1) ** ((q - 1) // 2)
    m1, m2 = (q - 1) // 2, (q + 1) // 2
    root = gauss_sum(q)
    torus = "split" if eps == 1 else "nonsplit"

    def cosine(m, k):
        return root_of_unity(m, k % m) + root_of_unity(m, -k % m)

    def row(value):
        return tuple(Cyclo.zero() + value(kind, k) for kind, k in classes)

    rows = [row(lambda kind, k: 1),
            row(lambda kind, k: {"1": q, "u": 0, "split": 1, "nonsplit": -1}[kind])]
    rows += [row(lambda kind, k: {"1": q + 1, "u": 1, "split": cosine(m1, i * k),
                                  "nonsplit": 0}[kind])
             for i in range(1, m1) if 2 * i < m1]
    rows += [row(lambda kind, k: {"1": q - 1, "u": -1, "split": 0,
                                  "nonsplit": -cosine(m2, j * k)}[kind])
             for j in range(1, m2) if 2 * j < m2]
    rows += [row(lambda kind, k: {"1": (q + eps) // 2, "u": (eps + sign * k * root) / 2,
                                  torus: eps * (-1) ** k}.get(kind, 0))
             for sign in (1, -1)]
    return rows


@pytest.mark.parametrize("q", PRIMES)
def test_the_table_is_the_closed_formulas(q):
    g, t, u, s = psl2(q)
    assert g.order == q * (q * q - 1) // 2
    table = build_character_table(g)
    assert len(table) == (q + 5) // 2
    oracle = psl2_rows(q, labels(g, t, u, s))
    assert sum(row[0].as_rational() ** 2 for row in oracle) == g.order
    assert rows_match_as_sets(table, oracle)
    if q <= 13:  # check_all reads all the values in one ring, at L = lcm of their orders
        assert check_all(table).ok
