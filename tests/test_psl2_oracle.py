"""The tables of PSL(2, q), q a prime from 5 to 31 or a prime power 8, 9,
16, 25 or 27, against the closed formulas of Jordan and Schur, which share
no code with the class-matrix method.

The group acts on the projective line {0, ..., q - 1, inf}, inf = q, over
GF(q) held here (`field`), by x -> x + 1, x -> a^2 x (a a primitive
element) and x -> -1/x.  With r the characteristic, g = gcd(2, q - 1) and,
for odd q, eps = (-1)^((q - 1) / 2), its classes are the identity, the
unipotent classes of order r (two for odd q, one for even q), the
nontrivial powers t^k of the split torus, cyclic of order (q - 1) / g and
generated by t: x -> a^2 x, up to k ~ -k, and the powers s^k of a nonsplit
torus, cyclic of order (q + 1) / g, up to k ~ -k.  Its characters, with rho
and sigma roots of unity of those two orders (Fulton and Harris,
Representation Theory, section 5.2; Dornhoff, Group Representation Theory,
Part A, section 38):

- the trivial character and the Steinberg character of degree q, which is
  0 on the unipotents, 1 on the split torus and -1 on the nonsplit one;
- principal series of degree q + 1: 1 on the unipotents, rho^ik + rho^-ik
  at t^k and 0 on the nonsplit torus, for 0 < i < (q - 1) / 2g;
- discrete series of degree q - 1: -1 on the unipotents, 0 on the split
  torus and -(sigma^jk + sigma^-jk) at s^k, for 0 < j < (q + 1) / 2g;
- for odd q only, two characters of half degree, (q + eps) / 2:
  (eps +- sqrt(eps q)) / 2 on one unipotent class and (eps -+ sqrt(eps q))
  / 2 on the other, and (-1)^k on the split torus (eps = 1) or -(-1)^k on
  the nonsplit one (eps = -1), 0 on the other torus.

sqrt(eps q) is r^(f/2) for q = r^f with f even, and r^((f-1)/2) times the
quadratic Gauss sum of r for f odd, so every value is an exact `Cyclo`.
Classes are matched through the group's `member_index`; any generator of a
torus serves, since another one permutes the series among themselves, and
the two unipotent classes swap the two half-degree rows, so the rows are
compared as a multiset.
"""

from itertools import product

import pytest

from chartab.analysis import check_all
from chartab.cyclo import Cyclo, root_of_unity
from chartab.permgroup import Perm, PermGroup
from chartab.tablegen import build_character_table
from conftest import rows_match_as_sets

ORDERS = [5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]


def characteristic(q):
    """(r, f) with q = r^f, r prime."""
    r = next(d for d in range(2, q + 1) if q % d == 0)
    f = 0
    while r ** f < q:
        f += 1
    assert r ** f == q
    return r, f


def field(q):
    """GF(q) as the ints 0 to q - 1, each the base-r digits of a polynomial
    in x of degree below f, reduced modulo the first monic polynomial of
    degree f of which x is a root of order q - 1: (add, mul, neg, inv, a),
    a = x the primitive element.  For a prime q it is Z/q."""
    r, f = characteristic(q)

    def digits(n):
        return [n // r ** i % r for i in range(f)]

    def number(ds):
        return sum(d * r ** i for i, d in enumerate(ds))

    def add(m, n):
        return number([(x + y) % r for x, y in zip(digits(m), digits(n))])

    def neg(n):
        return number([-x % r for x in digits(n)])

    for low in product(range(r), repeat=f):  # x^f = -sum_i low[i] x^i

        def times_x(n):
            ds = digits(n)
            return number([(x - ds[-1] * c) % r for x, c in zip([0] + ds[:-1], low)])

        powers = [1]
        while len(powers) < q - 1:
            powers.append(times_x(powers[-1]))
        # q - 1 distinct powers and x^(q-1) = 1: x is a unit of order q - 1,
        # which only a field of q elements has
        if times_x(powers[-1]) == 1 and len(set(powers)) == q - 1:
            break
    log = {n: k for k, n in enumerate(powers)}

    def mul(m, n):
        return m and n and powers[(log[m] + log[n]) % (q - 1)]

    def inv(n):
        return powers[-log[n] % (q - 1)]

    return add, mul, neg, inv, powers[1]


def moebius(q, f):
    """The permutation of the projective line that f, a map of GF(q)
    extended to inf by its caller, makes."""
    return Perm(f(x) for x in range(q + 1))


def psl2(q):
    """PSL(2, q) on the projective line, with t: x -> a^2 x, u: x -> x + 1
    and a generator s of a nonsplit torus, x -> c - 1/x for the least c
    that makes it of order (q + 1) / gcd(2, q - 1)."""
    add, mul, neg, inv, a = field(q)
    u = moebius(q, lambda x: x if x == q else add(x, 1))
    t = moebius(q, lambda x: x if x == q else mul(mul(a, a), x))
    w = moebius(q, lambda x: q if x == 0 else 0 if x == q else neg(inv(x)))
    s = next(s for c in range(q)
             for s in [moebius(q, lambda x: q if x == 0 else c if x == q else add(c, neg(inv(x))))]
             if s.order() == (q + 1) // (1 + q % 2))
    return PermGroup(q + 1, [u, t, w]), t, u, s


def gauss_sum(r):
    """sum_a (a / r) zeta_r^a for an odd prime r, whose square is eps r."""
    return sum(((1 if pow(x, (r - 1) // 2, r) == 1 else -1) * root_of_unity(r, x)
                for x in range(1, r)), Cyclo.zero())


def sqrt_eps_q(q):
    """sqrt(eps q) for odd q = r^f."""
    r, f = characteristic(q)
    root = r ** (f // 2) * (gauss_sum(r) if f % 2 else Cyclo.from_rational(1))
    assert root * root == (-1) ** ((q - 1) // 2) * q
    return root


def labels(g, t, u, s):
    """Each class's label: ("1", 0), ("u", +-1), the class of u taking +1,
    ("split", k) for t^k or ("nonsplit", k) for s^k."""
    data = g.conjugacy_classes()
    q = g.degree - 1
    r, _ = characteristic(q)
    found = {0: ("1", 0)}
    for kind, gen, m in [("split", t, q - 1), ("nonsplit", s, q + 1)]:
        for k in range(1, m // (1 + q % 2)):
            found.setdefault(data.member_index[gen ** k], (kind, k))
    unipotent = [j for j, n in enumerate(data.element_orders) if n == r]
    assert len(unipotent) == 1 + q % 2 and data.member_index[u] in unipotent
    for j in unipotent:
        found[j] = ("u", 1 if j == data.member_index[u] else -1)
    assert sorted(found) == list(range(len(data)))
    return [found[j] for j in range(len(data))]


def psl2_rows(q, classes):
    """The closed-formula rows, each value read off its class's label."""
    m1, m2 = (q - 1) // (1 + q % 2), (q + 1) // (1 + q % 2)

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
    if q % 2:
        eps = (-1) ** ((q - 1) // 2)
        root = sqrt_eps_q(q)
        torus = "split" if eps == 1 else "nonsplit"
        rows += [row(lambda kind, k: {"1": (q + eps) // 2, "u": (eps + sign * k * root) / 2,
                                      torus: eps * (-1) ** k}.get(kind, 0))
                 for sign in (1, -1)]
    return rows


@pytest.mark.parametrize("q", ORDERS)
def test_the_table_is_the_closed_formulas(q):
    g, t, u, s = psl2(q)
    assert g.order == q * (q * q - 1) // (1 + q % 2)
    table = build_character_table(g)
    assert len(table) == ((q + 5) // 2 if q % 2 else q + 1)
    oracle = psl2_rows(q, labels(g, t, u, s))
    assert sum(row[0].as_rational() ** 2 for row in oracle) == g.order
    assert rows_match_as_sets(table, oracle)
    if q <= 13:  # check_all reads all the values in one ring, at L = lcm of their orders
        assert check_all(table).ok
