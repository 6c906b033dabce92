"""The tables of S_n and A_n against closed formulas that share no code with
the class-matrix method.

S_n: chi^lambda(mu) by the Murnaghan-Nakayama rule on beta-sets.  A_n: for
lambda != lambda', chi^lambda restricts to one irreducible, one row per pair
{lambda, lambda'}; for lambda = lambda' it splits into two rows, each
chi^lambda / 2 off the two classes of cycle type q, the diagonal hook
lengths of lambda, where they take (eps +- sqrt(eps prod q_i)) / 2 with
eps = (-1)^((n - len q) / 2) (Fulton and Harris, Representation Theory,
section 5.1).  The square root is a quadratic Gauss sum, so every value is
an exact `Cyclo`.  Classes are matched by cycle type and rows as a multiset;
the two classes of a split cycle type are matched up to swapping them.
"""

import math
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from chartab.cyclo import Cyclo, root_of_unity
from chartab.permgroup import parse_group_spec
from chartab.tablegen import build_character_table


def partitions(n, largest=None):
    """The partitions of n, parts descending, none above largest."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def conjugate(la):
    return tuple(sum(1 for part in la if part > i) for i in range(la[0] if la else 0))


@lru_cache(maxsize=None)
def murnaghan_nakayama(beta, mu):
    """chi^lambda(mu), lambda given by its beta-set: removing an r-rim hook
    moves a bead from b to a free position b - r >= 0, with sign (-1) to the
    number of beads it passes.  The cycles of mu are removed in order."""
    if not mu:
        return 1
    r, beads, total = mu[0], set(beta), 0
    for b in beta:
        if b >= r and b - r not in beads:
            passed = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** passed * murnaghan_nakayama(
                tuple(sorted(beads - {b} | {b - r})), mu[1:])
    return total


def chi(la, mu):
    return murnaghan_nakayama(tuple(part + len(la) - 1 - i for i, part in enumerate(la)), mu)


def jacobi(a, n):
    """The Jacobi symbol (a / n), n odd and positive."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def exact_sqrt(m):
    """sqrt(m) for m = +-P, P odd and squarefree: the Gauss sum
    sum_a (a / P) zeta_P^a squares to (-1)^((P - 1) / 2) P, and i times it
    to minus that."""
    big_p = abs(m)
    gauss = sum((jacobi(a, big_p) * root_of_unity(big_p, a) for a in range(1, big_p)),
                Cyclo.zero())
    root = gauss if m == (big_p if big_p % 4 == 1 else -big_p) else root_of_unity(4) * gauss
    assert root * root == m
    return root


def cycle_type(perm):
    return tuple(sorted([*map(len, perm.cycles()), *[1] * perm.fixed_points()], reverse=True))


def is_even(mu):
    return sum(part - 1 for part in mu) % 2 == 0


def symmetric_rows(n):
    """Each row as {cycle type: (its value)}, one value per class."""
    return [{mu: (Cyclo.from_rational(chi(la, mu)),) for mu in partitions(n)}
            for la in partitions(n)]


def alternating_rows(n):
    """Each row as {cycle type: its values on the classes of that type}: a
    split type, distinct odd parts, has two classes in A_n."""
    types = [mu for mu in partitions(n) if is_even(mu)]
    split = [mu for mu in types if len(set(mu)) == len(mu) and all(part % 2 for part in mu)]
    rows = []
    for la in partitions(n):
        if la > conjugate(la):
            continue  # one row per pair {lambda, lambda'}
        restricted = {mu: Cyclo.from_rational(chi(la, mu)) for mu in types}
        if la != conjugate(la):
            rows.append({mu: (v, v) if mu in split else (v,) for mu, v in restricted.items()})
            continue
        q = tuple(2 * (part - i) - 1 for i, part in enumerate(la) if part > i)
        eps = (-1) ** ((n - len(q)) // 2)
        root = exact_sqrt(eps * math.prod(q))
        half = {mu: v / 2 for mu, v in restricted.items()}
        for sign in (1, -1):
            plus, minus = (eps + sign * root) / 2, (eps - sign * root) / 2
            assert plus + minus == restricted[q]
            rows.append({mu: (plus, minus) if mu == q else (v, v) if mu in split else (v,)
                         for mu, v in half.items()})
    return rows


def same_rows(ours, theirs):
    """Whether two lists of rows are equal as multisets, by exact equality."""
    theirs = list(theirs)
    for row in ours:
        match = next((k for k, other in enumerate(theirs) if other == row), None)
        if match is None:
            return False
        del theirs[match]
    return not theirs


@pytest.mark.parametrize("name", [f"S{n}" for n in range(1, 9)] + [f"A{n}" for n in range(3, 9)])
def test_the_table_is_the_closed_formulas(name):
    g = parse_group_spec(name)
    table = build_character_table(g)
    n = g.degree
    oracle = symmetric_rows(n) if name[0] == "S" else alternating_rows(n)
    types = [cycle_type(r) for r in table.class_data.representatives]
    assert Counter(types) == Counter({mu: len(v) for mu, v in oracle[0].items()})
    # the k-th class of a split type reads value k of the pair, or, with
    # that type swapped, value 1 - k
    occurrence = [types[:j].count(mu) for j, mu in enumerate(types)]
    split = sorted({mu for mu, values in oracle[0].items() if len(values) == 2})

    def aligned(swapped):
        return [tuple(row[mu][k ^ (mu in swapped)] for mu, k in zip(types, occurrence))
                for row in oracle]

    ours = [tuple(row.values) for row in table.rows]
    assert any(same_rows(ours, aligned({mu for mu, s in zip(split, swaps) if s}))
               for swaps in product((0, 1), repeat=len(split)))
