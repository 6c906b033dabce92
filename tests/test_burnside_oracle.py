"""Burnside's prime-power-class argument and the solvability of G read off
Irr(G) alone, against `analysis` and `permgroup`, which close normal
subgroups from the group's elements.

A normal subgroup is a union of classes, and every one is an intersection
of kernels ker chi = {g : chi(g) = chi(1)} of irreducibles.  So the normal
closure of a set of classes is the intersection of the kernels that hold
it, and G is simple exactly when every nontrivial class has closure G.
Burnside's lemma: when chi(1) is prime to |C| for the class C of g, chi(g)
is 0 or g lies in the centre Z(chi) = {g : |chi(g)|^2 = chi(1)^2}, which is
normal.  When |C| = p^a > 1, column orthogonality, sum_chi chi(1) chi(g) =
0, gives a chi != 1 with p not dividing chi(1) and chi(g) != 0: g is in
Z(chi), so G is not simple (Isaacs, Character Theory of Finite Groups,
ch. 3).  A chief series is read off the closures too: the smallest closure
of N with one more class is a minimal normal subgroup above N, and G is
solvable exactly when every chief factor M/N has prime-power order.
"""

from math import prod

import pytest

from chartab.analysis import burnside_class_test, burnside_solvability
from chartab.permgroup import parse_group_spec
from chartab.tablegen import build_character_table

D4_CUBED = "perm:12:(0,1,2,3);(1,3);(4,5,6,7);(5,7);(8,9,10,11);(9,11)"
A5XC3 = "perm:8:(0,1,2);(0,1,2,3,4);(5,6,7)"
GROUPS = ["S3", "S4", "S5", "S6", "S7", "S8", "A4", "A5", "A6", "A7", "A8",
          "D4", "D8", "C6", "Q8", D4_CUBED, A5XC3]


def prime_of(n):
    """p when n is a power p^a > 1 of the prime p, else None."""
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    while p and n % p == 0:
        n //= p
    return p if n == 1 else None


class Oracle:
    """The normal structure of G from its character table alone."""

    def __init__(self, table):
        self.sizes = table.class_data.sizes
        self.rows = [row.values for row in table.rows]
        self.degrees = table.degrees
        self.everything = frozenset(range(len(self.sizes)))
        self.kernels = [frozenset(j for j, v in enumerate(chi) if v == chi[0])
                        for chi in self.rows]
        self.centres = [frozenset(j for j, v in enumerate(chi) if v * v.conj() == chi[0] ** 2)
                        for chi in self.rows]

    def order(self, classes):
        return sum(self.sizes[j] for j in classes)

    def closure(self, classes):
        """The intersection of the kernels that hold the classes."""
        return self.everything.intersection(*(k for k in self.kernels if classes <= k))

    def chief_factors(self):
        """|M/N| down a chief series 1 = N_0 < N_1 < ... < G."""
        factors, n = [], frozenset({0})
        while n != self.everything:
            m = min((self.closure(n | {j}) for j in self.everything - n), key=self.order)
            factors.append(self.order(m) // self.order(n))
            n = m
        return factors


@pytest.mark.parametrize("name", GROUPS)
def test_normal_structure_from_the_characters_alone(name):
    g = parse_group_spec(name)
    oracle = Oracle(build_character_table(g))
    h = len(oracle.sizes)
    closures = [oracle.order(oracle.closure(frozenset({j}))) for j in range(1, h)]
    simple = g.order > 1 and all(c == g.order for c in closures)
    proper = [c for c in closures if 1 < c < g.order]

    prime_power = False
    for j in range(1, h):
        p = prime_of(oracle.sizes[j])
        if p is None:
            continue
        prime_power = True
        witness = next(i for i in range(1, h)
                       if oracle.degrees[i] % p and not oracle.rows[i][j].is_zero())
        assert j in oracle.centres[witness], (j, witness)
        assert not simple

    report = burnside_class_test(g)
    assert g.is_simple() == report.simple == simple
    assert report.verdict == ("not simple" if prime_power else "inconclusive")
    assert report.witness_order == (min(proper) if proper else None)
    factors = oracle.chief_factors()
    assert prod(factors) == g.order
    assert burnside_solvability(g).solvable == all(map(prime_of, factors))
