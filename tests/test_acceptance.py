"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; an assertion failure marks the criterion failed.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

from chartab.analysis import burnside_class_test, burnside_solvability, restriction_report, restrict
from chartab.cli import _render_table_json
from chartab.classfun import (
    ClassFunction,
    decompose,
    dft_cyclic,
    inner_product,
    inverse_dft_cyclic,
    is_irreducible,
    plancherel_check,
    regular_character,
    sym_alt_square,
)
from chartab.cyclo import Cyclo, from_rational, root_of_unity
from chartab.permgroup import PermGroup, parse_group_spec
from chartab.reps import MatrixRep, builtin_rep, character_of, check_matrix_orthogonality
from chartab.tablegen import (
    build_character_table,
    class_constants,
    linear_characters,
)

from conftest import (
    A4_COLUMNS,
    A4_ROWS,
    A5_COLUMNS,
    A5_ROWS,
    BUILTIN_NAMES,
    BUILTINS_LE_24,
    S4_COLUMNS,
    S4_ROWS,
    S5_COLUMNS,
    S5_ROWS,
    class_index_of,
    documented_row_key,
    element_sum_pairing,
    expected_row_set,
    ratio,
    same_abstract_table,
)


def passed(n, message):
    print(f"PASS criterion {n}: {message}")


def canonical_rows(table):
    return [row.values for row in table.rows]


def assert_table_matches(group, table, columns, rows):
    """Bit-exact table comparison after canonical ordering of both sides."""
    expected = expected_row_set(group, columns, rows)
    expected = sorted(
        (tuple(Cyclo._coerce(v) for v in row) for row in expected),
        key=documented_row_key,
    )
    actual = canonical_rows(table)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        for a, b in zip(got, want):
            assert a == b


def test_criterion_1_golden_tables():
    s3 = build_character_table(parse_group_spec("S3"))
    assert [
        [v.exact_str() for v in row.values] for row in s3.rows
    ] == [["1", "1", "1"], ["1", "1", "-1"], ["2", "-1", "0"]]

    q8 = build_character_table(parse_group_spec("Q8"))
    d4 = build_character_table(parse_group_spec("D4"))
    assert same_abstract_table(d4, q8)
    expected_q8 = [
        ("1", "1", "1", "1", "1"),
        ("1", "1", "1", "-1", "-1"),
        ("1", "1", "-1", "1", "-1"),
        ("1", "1", "-1", "-1", "1"),
        ("2", "-2", "0", "0", "0"),
    ]
    for table in (q8, d4):
        assert [
            tuple(v.exact_str() for v in row.values) for row in table.rows
        ] == expected_q8

    a4_group = parse_group_spec("A4")
    a4 = build_character_table(a4_group)
    assert_table_matches(a4_group, a4, A4_COLUMNS, A4_ROWS)
    omega = root_of_unity(3, 1)
    assert any(omega in row.values for row in a4.rows)

    s4_group = parse_group_spec("S4")
    assert_table_matches(
        s4_group, build_character_table(s4_group), S4_COLUMNS, S4_ROWS
    )

    s5_group = parse_group_spec("S5")
    s5 = build_character_table(s5_group)
    assert len(s5.rows) == 7
    assert_table_matches(s5_group, s5, S5_COLUMNS, S5_ROWS)

    a5_group = parse_group_spec("A5")
    a5 = build_character_table(a5_group)
    assert_table_matches(a5_group, a5, A5_COLUMNS, A5_ROWS)
    # the surd entries are 1 + z5 + z5^4 and 1 + z5^2 + z5^3, numerically
    # (1 +/- sqrt 5) / 2
    surd_plus = from_rational(1) + root_of_unity(5, 1) + root_of_unity(5, 4)
    surd_minus = from_rational(1) + root_of_unity(5, 2) + root_of_unity(5, 3)
    degree3 = [row for row in a5.rows if row.values[0] == 3]
    assert len(degree3) == 2
    five_cols = [
        j for j, d in enumerate(a5_group.conjugacy_classes().element_orders) if d == 5
    ]
    seen = set()
    for row in degree3:
        for j in five_cols:
            value = row.values[j]
            assert value == surd_plus or value == surd_minus
            target = 1.618033988749895 if value == surd_plus else -0.618033988749895
            assert abs(value.to_float() - target) < 1e-9
            seen.add(value == surd_plus)
    assert seen == {True, False}
    passed(1, "golden tables for S3, Q8, D4, A4, S4, S5, A5 are bit-exact")


def test_criterion_2_orthogonality_suite():
    for name in BUILTIN_NAMES:
        g = parse_group_spec(name)
        assert g.order <= 120
        table = build_character_table(g)
        data = g.conjugacy_classes()
        h = len(data)
        for i in range(h):
            for j in range(h):
                assert inner_product(table.rows[i], table.rows[j]) == (
                    1 if i == j else 0
                )
        for l in range(h):
            acc = Cyclo.zero()
            for row in table.rows:
                acc = acc + row.values[l] * row.values[l].conj()
            assert acc == Fraction(g.order, data.sizes[l])
    passed(2, f"row and column orthogonality exact for {len(BUILTIN_NAMES)} builtins")


def test_criterion_3_degree_facts():
    for name in BUILTIN_NAMES:
        g = parse_group_spec(name)
        table = build_character_table(g)
        assert sum(d * d for d in table.degrees) == g.order
        assert all(g.order % d == 0 for d in table.degrees)
        derived = g.commutator_subgroup()
        assert sum(1 for d in table.degrees if d == 1) == derived.index
    passed(3, "sum of squares, divisibility, and linear count hold for all builtins")


def test_criterion_3_degrees_of_larger_groups():
    d4 = [1, 1, 1, 1, 2]
    expected = {
        "S8": [1, 1, 7, 7, 14, 14, 20, 20, 21, 21, 28, 28, 35, 35, 42, 56, 56,
               64, 64, 70, 70, 90],
        # D4^3 (h = 125): Irr(G x H) = Irr(G) x Irr(H), so the degrees are the
        # products of D4's, 64 of 1, 48 of 2, 12 of 4 and 1 of 8
        "perm:12:(0,1,2,3);(0,2);(4,5,6,7);(4,6);(8,9,10,11);(8,10)":
            sorted(a * b * c for a, b, c in iproduct(d4, repeat=3)),
        # C2^8 (h = 256): abelian, so 256 linear characters
        "perm:16:(0,1);(2,3);(4,5);(6,7);(8,9);(10,11);(12,13);(14,15)": [1] * 256,
    }
    for spec, degrees in expected.items():
        assert sorted(build_character_table(parse_group_spec(spec)).degrees) == degrees
    passed(3, "degree multisets of S8, D4^3 and C2^8")


def test_criterion_4_regular_decomposition():
    for name in BUILTIN_NAMES:
        g = parse_group_spec(name)
        table = build_character_table(g)
        assert decompose(regular_character(g), table) == list(table.degrees)
    passed(4, "regular character decomposes with degree multiplicities")


def test_criterion_5_sym_alt_for_s5():
    g = parse_group_spec("S5")
    table = build_character_table(g)
    c12 = class_index_of(g, "(0,1)")
    chi3 = next(
        r for r in table.rows if r.values[0] == 4 and r.values[c12] == 2
    )
    chi_s, chi_a = sym_alt_square(chi3)
    expected_alt = {
        "()": 6, "(0,1)": 0, "(0,1,2)": 0, "(0,1)(2,3)": -2,
        "(0,1,2,3)": 0, "(0,1)(2,3,4)": 0, "(0,1,2,3,4)": 1,
    }
    for rep_text, val in expected_alt.items():
        assert chi_a.values[class_index_of(g, rep_text)] == val
    assert inner_product(chi_a, chi_a) == 1
    assert inner_product(chi_s, chi_s) == 3
    mults = decompose(chi_s, table)
    chi1 = table.rows[0]
    chi6 = next(
        r for r in table.rows if r.values[0] == 5 and r.values[c12] == 1
    )
    assert mults[table.rows.index(chi1)] == 1
    assert mults[table.rows.index(chi3)] == 1
    assert mults[table.rows.index(chi6)] == 1
    assert sum(mults) == 3
    passed(5, "chi_A = (6,0,0,-2,0,0,1) with norm 1; chi_S = chi1 + chi3 + chi6")


def test_criterion_6_index_two_restrictions():
    g = parse_group_spec("S5")
    table = build_character_table(g)
    a5 = parse_group_spec("A5")
    sub = g.subgroup(list(a5.generators))
    sub_table = build_character_table(sub.as_group())
    c12 = class_index_of(g, "(0,1)")

    def chi(degree, val):
        return next(
            r for r in table.rows
            if r.values[0] == degree and r.values[c12] == val
        )

    psi1 = sub_table.rows[0]
    psi2 = next(r for r in sub_table.rows if r.values[0] == 4)
    psi3 = next(r for r in sub_table.rows if r.values[0] == 5)

    assert restrict(chi(1, ratio(1)), sub) == psi1
    assert restrict(chi(1, ratio(-1)), sub) == psi1
    assert restrict(chi(4, ratio(2)), sub) == psi2
    assert restrict(chi(4, ratio(-2)), sub) == psi2
    assert restrict(chi(5, ratio(1)), sub) == psi3
    assert restrict(chi(5, ratio(-1)), sub) == psi3

    chi5 = chi(6, ratio(0))
    report = restriction_report(chi5, sub, sub_table)
    assert report.case == "splits"
    assert sorted(sub_table.degrees[i] for i in report.constituents) == [3, 3]
    assert all(report.multiplicities[i] == 1 for i in report.constituents)
    for rep_text in ["(0,1)", "(0,1,2,3)", "(0,1)(2,3,4)"]:
        assert chi5.values[class_index_of(g, rep_text)].is_zero()
    assert report.vanishes_off_subgroup
    passed(6, "S5 -> A5 restrictions match: 1,2->psi1; 3,4->psi2; 6,7->psi3; 5 splits")


def test_criterion_7_matrix_orthogonality():
    rep = builtin_rep("q8-2dim").extend_to_group()
    assert is_irreducible(character_of(rep))
    self_report = check_matrix_orthogonality(rep, rep)
    assert self_report.ok and self_report.checked == 16
    # recompute one self-pairing independently: (a_00, a_00) = 1/2
    g = rep.group
    acc = Cyclo.zero()
    for t in g.elements:
        acc = acc + rep.image(t)[0][0] * rep.image(t.inv())[0][0]
    assert Fraction(1, g.order) * acc == Fraction(1, 2)

    data = g.conjugacy_classes()
    for chi in linear_characters(g):
        if all(v == 1 for v in chi.values):
            continue
        images = [
            ((chi.values[data.member_index[gen]],),) for gen in g.generators
        ]
        lin = MatrixRep(g, images).extend_to_group()
        cross = check_matrix_orthogonality(rep, lin)
        assert cross.ok and cross.checked == 4
    passed(7, "Q8 2-dim rep: self-pairings (1/2) delta delta, cross-pairings 0")


def test_criterion_8_burnside():
    expected_solvable = ["S3", "S4", "D1", "D2", "D3", "D4", "D5", "D6", "Q8",
                         "A4", "C6"]
    for name in BUILTIN_NAMES:
        g = parse_group_spec(name)
        report = burnside_solvability(g)
        if report.theorem_applies:
            assert report.solvable, f"{name} must be solvable"
    for name in expected_solvable:
        report = burnside_solvability(parse_group_spec(name))
        assert report.theorem_applies and report.solvable

    a5 = parse_group_spec("A5")
    assert a5.is_simple()
    assert not a5.is_solvable()
    a5_report = burnside_class_test(a5)
    assert a5_report.verdict == "inconclusive"
    factored = {e.size: sorted(e.factorization) for e in a5_report.entries}
    assert factored == {20: [2, 5], 15: [3, 5], 12: [2, 3]}

    q8 = parse_group_spec("Q8")
    q8_report = burnside_class_test(q8)
    assert q8_report.verdict == "not simple"
    assert any(e.size == 2 and e.is_prime_power for e in q8_report.entries)
    assert set(q8_report.witness.elements) == set(q8.center().elements)
    passed(8, "p^a q^b builtins solvable; A5 simple and non-solvable; Q8 center witness")


def test_criterion_9_oracle_equivalence():
    # class constants against the triple-loop product count
    for name in BUILTINS_LE_24:
        g = parse_group_spec(name)
        data = g.conjugacy_classes()
        h = len(data)
        cc = class_constants(g)
        for j in range(h):
            for k in range(h):
                for l in range(h):
                    count = sum(
                        1
                        for x, y in iproduct(data.members[j], data.members[k])
                        if x * y == data.representatives[l]
                    )
                    assert cc.a[j][k][l] == count

    # class-weighted inner products against full element summation, on
    # random class functions and on the table rows (chi_1, chi_h) and
    # (chi_h, chi_h) of every builtin of order <= 60
    rng = random.Random(97)
    pairs = []
    for name in BUILTINS_LE_24:
        g = parse_group_spec(name)
        h = len(g.conjugacy_classes())
        for _ in range(3):
            f1 = ClassFunction(
                g, [root_of_unity(6, rng.randrange(6)) * rng.randrange(-2, 3)
                    for _ in range(h)]
            )
            f2 = ClassFunction(
                g, [ratio(rng.randrange(-3, 4)) for _ in range(h)]
            )
            pairs.append((f1, f2))
    for name in BUILTIN_NAMES:
        g = parse_group_spec(name)
        if g.order <= 60:
            rows = build_character_table(g).rows
            pairs += [(rows[0], rows[-1]), (rows[-1], rows[-1])]
    for f1, f2 in pairs:
        assert element_sum_pairing(f1, f2) == inner_product(f1, f2)

    # Fourier inversion and Plancherel on 100 random inputs
    rng = random.Random(20260810)
    for _ in range(100):
        n = rng.randrange(1, 13)
        f = [
            from_rational(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
            for _ in range(n)
        ]
        fhat = dft_cyclic(f, n)
        assert inverse_dft_cyclic(fhat, n) == f
        lhs, rhs = plancherel_check(f, n)
        assert lhs == rhs
    passed(9, "constants, pairings, and Fourier identities match brute force")


def test_criterion_10_determinism():
    for name in BUILTIN_NAMES:
        g1 = parse_group_spec(name)
        g2 = PermGroup(g1.degree, g1.generators, cap=g1.cap, spec=g1.spec)
        first = _render_table_json(build_character_table(g1))
        second = _render_table_json(build_character_table(g2))
        assert first == second
    passed(10, "fresh rebuilds produce byte-identical JSON for every builtin")
