"""Shared helpers: builtin group inventory and paper-table fixtures.

Expected tables are keyed by class representatives (as cycle strings on
0-based points) so tests stay correct under the library's canonical class
ordering.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from chartab.cyclo import Cyclo, from_rational, root_of_unity
from chartab.permgroup import parse_group_spec

# tests/mutants.py runs its tests under this profile: a kill needs a failing
# example, not a shrunk one, and a mutant's examples are not kept
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)

# every builtin group of order <= 120
BUILTIN_NAMES = (
    [f"C{n}" for n in range(1, 10)]
    + [f"S{n}" for n in range(1, 6)]
    + [f"A{n}" for n in range(1, 6)]
    + [f"D{n}" for n in range(1, 10)]
    + ["Q8"]
)

BUILTINS_LE_24 = [
    name for name in BUILTIN_NAMES if parse_group_spec(name).order <= 24
]


def parse_again(spec):
    """A new parse of spec, made after more than `PARSE_CACHE_SIZE` other
    builtin specs have pushed its first parse out of the parse cache: a
    group object of the same degree and generators, not the same object."""
    from chartab.permgroup import PARSE_CACHE_SIZE

    first = parse_group_spec(spec)
    others = [f + str(n) for f in "SACD" for n in range(1, 10) if f + str(n) != spec]
    assert len(others) > PARSE_CACHE_SIZE
    for other in others:
        parse_group_spec(other)
    again = parse_group_spec(spec)
    assert again is not first
    return again


def ratio(p, q=1):
    return from_rational(Fraction(p, q))


def zeta(e, k=1):
    return root_of_unity(e, k)


def element_sum_pairing(f1, f2):
    """<f1, f2> summed element by element, (1/|G|) sum_t f1(t) conj(f2(t)),
    one exact `Cyclo` sum and no class weights: the oracle for
    `inner_product`."""
    g = f1.group
    member = g.conjugacy_classes().member_index
    total = Cyclo.zero()
    for t in g.elements:
        j = member[t]
        total = total + f1.values[j] * f2.values[j].conj()
    return Fraction(1, g.order) * total


def perm_of(group, cycle_text):
    """Parse a product of cycles as an element of the given group."""
    from chartab.permgroup import _parse_cycles

    return _parse_cycles(cycle_text, group.degree)


def count_perm_products(monkeypatch):
    """Count the `Perm` products made from now on, in a one-item list: every
    product, `p * q` included, is one call of a gather from
    `Perm.right_mul`, so each gather made from now on counts its calls."""
    from chartab.permgroup import Perm

    count = [0]
    right_mul = Perm.right_mul

    def counting_right_mul(q):
        gather = right_mul(q)

        def counted(x):
            count[0] += 1
            return gather(x)

        return counted

    monkeypatch.setattr(Perm, "right_mul", counting_right_mul)
    return count


def class_index_of(group, cycle_text):
    """Canonical class index of the element written in cycle notation."""
    data = group.conjugacy_classes()
    return data.member_index[perm_of(group, cycle_text)]


def reorder_paper_row(group, paper_columns, paper_values):
    """Map a table row given on paper-ordered class reps into canonical order."""
    data = group.conjugacy_classes()
    values = [None] * len(data)
    for rep_text, value in zip(paper_columns, paper_values):
        values[class_index_of(group, rep_text)] = value
    assert all(v is not None for v in values)
    return tuple(values)


# the worked S5 table: columns are class representatives, rows chi_1..chi_7
S5_COLUMNS = ["()", "(0,1)", "(0,1,2)", "(0,1)(2,3)", "(0,1,2,3)",
              "(0,1)(2,3,4)", "(0,1,2,3,4)"]
S5_ROWS = [
    [1, 1, 1, 1, 1, 1, 1],
    [1, -1, 1, 1, -1, -1, 1],
    [4, 2, 1, 0, 0, -1, -1],
    [4, -2, 1, 0, 0, 1, -1],
    [6, 0, 0, -2, 0, 0, 1],
    [5, 1, -1, 1, -1, 1, 0],
    [5, -1, -1, 1, 1, -1, 0],
]

S4_COLUMNS = ["()", "(0,1)", "(0,1)(2,3)", "(0,1,2)", "(0,1,2,3)"]
S4_ROWS = [
    [1, 1, 1, 1, 1],
    [1, -1, 1, 1, -1],
    [3, 1, -1, 0, -1],
    [3, -1, -1, 0, 1],
    [2, 0, 2, -1, 0],
]

A5_COLUMNS = ["()", "(0,1,2)", "(0,1)(2,3)", "(0,1,2,3,4)", "(0,2,3,4,1)"]

GOLDEN_PHI = zeta(5, 1) + zeta(5, 4) + 1          # (1 + sqrt 5) / 2
GOLDEN_PHI_CONJ = zeta(5, 2) + zeta(5, 3) + 1     # (1 - sqrt 5) / 2

A5_ROWS = [
    [ratio(1)] * 5,
    [ratio(4), ratio(1), ratio(0), ratio(-1), ratio(-1)],
    [ratio(5), ratio(-1), ratio(1), ratio(0), ratio(0)],
    [ratio(3), ratio(0), ratio(-1), GOLDEN_PHI, GOLDEN_PHI_CONJ],
    [ratio(3), ratio(0), ratio(-1), GOLDEN_PHI_CONJ, GOLDEN_PHI],
]

A4_COLUMNS = ["()", "(0,1)(2,3)", "(0,1,2)", "(0,2,1)"]
OMEGA = zeta(3, 1)
A4_ROWS = [
    [ratio(1)] * 4,
    [ratio(1), ratio(1), OMEGA, OMEGA * OMEGA],
    [ratio(1), ratio(1), OMEGA * OMEGA, OMEGA],
    [ratio(3), ratio(-1), ratio(0), ratio(0)],
]


def expected_row_set(group, columns, rows):
    """Paper rows as a list of canonically-ordered value tuples."""
    return [reorder_paper_row(group, columns, row) for row in rows]


def rows_match_as_sets(table, expected_rows) -> bool:
    """Multiset equality of table rows against expected tuples of values."""
    actual = [row.values for row in table.rows]
    remaining = list(expected_rows)
    for row in actual:
        for i, exp in enumerate(remaining):
            if all(a == b for a, b in zip(row, exp)):
                remaining.pop(i)
                break
        else:
            return False
    return not remaining


def documented_row_key(values):
    """A row's place in the canonical order as README states it, row by row:
    its degree, then each value's float rounded to 1e-9, descending, then
    each value's held form (order, nums, den)."""
    rounded = []
    for v in values:
        fv = v.to_float()
        rounded.append((-int(round(fv.real * 1e9)), -int(round(fv.imag * 1e9))))
    return (values[0].as_rational(), *rounded, *((v.order, v.nums, v.den) for v in values))


def assert_value_index(table):
    """`table.values` holds each value object of the rows once, and
    `table.cells[i][j]` is the position of `table.rows[i].values[j]` in it.
    A table made by hand from the same rows has the same index: the same
    value objects in the same order, and the same cells, so the lift's index
    and the one `_indexed` makes agree.  Each row's split form holds its own
    values, and a table made by hand from rows with the same values gives
    equal forms."""
    from chartab.classfun import ClassFunction
    from chartab.tablegen import CharacterTable

    assert len(table.cells) == len(table.rows)
    for row, cells in zip(table.rows, table.cells):
        assert len(cells) == len(row.values)
        assert all(table.values[c] is v for c, v in zip(cells, row.values))
    assert len({id(v) for v in table.values}) == len(table.values)
    assert {id(v) for row in table.rows for v in row.values} == {id(v) for v in table.values}
    by_hand = CharacterTable(table.group, table.rows)
    assert len(by_hand.values) == len(table.values)
    assert all(a is b for a, b in zip(by_hand.values, table.values))
    assert by_hand.cells == table.cells
    forms = [row.split for row in table.rows]
    assert all(form[0] is row.values for form, row in zip(forms, table.rows))
    again = CharacterTable(table.group, [ClassFunction(table.group, row.values) for row in table.rows])
    assert [row.split[1:] for row in again.rows] == [form[1:] for form in forms]


def same_abstract_table(a, b) -> bool:
    """Abstract-table equality: the class sizes and the value matrices, in
    canonical class and row order, agree.  Does not imply the groups are
    isomorphic."""
    if a.class_data.sizes != b.class_data.sizes or len(a.rows) != len(b.rows):
        return False
    return all(x == y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra.values, rb.values))


@pytest.fixture(scope="session")
def s5_group():
    return parse_group_spec("S5")


@pytest.fixture(scope="session")
def s5_table(s5_group):
    from chartab.tablegen import build_character_table

    return build_character_table(s5_group)


@pytest.fixture(scope="session")
def a5_subgroup(s5_group):
    sub = parse_group_spec("A5")
    return s5_group.subgroup(list(sub.generators))


@pytest.fixture(scope="session")
def a5_table(a5_subgroup):
    from chartab.tablegen import build_character_table

    return build_character_table(a5_subgroup.as_group())
