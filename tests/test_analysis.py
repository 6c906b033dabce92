import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from chartab import analysis, cli, tablegen
from chartab.analysis import (
    burnside_class_test,
    burnside_solvability,
    check_all,
    regular_decomposition,
    restrict,
    restriction_report,
)
from chartab.classfun import (
    ClassFunction,
    NotACharacterError,
    decompose,
    inner_product,
    regular_character,
    trivial_character,
)
from chartab.cyclo import Cyclo, root_of_unity
from chartab.permgroup import GroupMismatchError, PermGroup, Subgroup, parse_group_spec
from chartab.tablegen import CharacterTable, build_character_table

from conftest import (
    BUILTINS_LE_24,
    assert_value_index,
    class_index_of,
    count_perm_products,
    element_sum_pairing,
    parse_again,
    perm_of,
    ratio,
)


def s5_char(table, group, degree, rep_text, value):
    col = class_index_of(group, rep_text)
    hits = [
        r for r in table.rows if r.values[0] == degree and r.values[col] == value
    ]
    assert len(hits) == 1
    return hits[0]


class TestRestrict:
    def test_trivial_restrictions_coincide(self, s5_group, s5_table, a5_subgroup):
        chi1 = s5_char(s5_table, s5_group, 1, "(0,1)", ratio(1))
        chi2 = s5_char(s5_table, s5_group, 1, "(0,1)", ratio(-1))
        r1 = restrict(chi1, a5_subgroup)
        r2 = restrict(chi2, a5_subgroup)
        assert r1 == r2
        assert r1 == trivial_character(a5_subgroup.as_group())

    def test_degree4_restricts_to_psi2(self, s5_group, s5_table, a5_subgroup):
        chi3 = s5_char(s5_table, s5_group, 4, "(0,1)", ratio(2))
        restricted = restrict(chi3, a5_subgroup)
        h_group = a5_subgroup.as_group()
        expected = {
            "()": 4, "(0,1,2)": 1, "(0,1)(2,3)": 0,
        }
        for rep_text, val in expected.items():
            assert restricted.values[class_index_of(h_group, rep_text)] == val
        # both 5-cycle classes carry -1
        data = h_group.conjugacy_classes()
        five_cycle_classes = [j for j, d in enumerate(data.element_orders) if d == 5]
        assert len(five_cycle_classes) == 2
        for j in five_cycle_classes:
            assert restricted.values[j] == -1

    def test_restrict_to_whole_group(self, s5_group, s5_table):
        whole = s5_group.subgroup(list(s5_group.generators))
        for row in s5_table.rows:
            assert tuple(restrict(row, whole).values) == tuple(row.values)

    def test_group_mismatch(self, a5_subgroup):
        foreign = trivial_character(parse_group_spec("S4"))
        with pytest.raises(GroupMismatchError):
            restrict(foreign, a5_subgroup)

    @pytest.mark.parametrize("parent", ["the same", "parsed again"])
    def test_equal_subgroups_and_parents_meet(self, s5_group, s5_table, a5_subgroup, parent):
        # a second subgroup call with A5's generators, on S5 itself or on S5
        # parsed again: a new object of the same degree and generators, with
        # the same enumeration and class order
        g = s5_group if parent == "the same" else parse_again("S5")
        h = g.subgroup(list(a5_subgroup.generators))
        assert h is not a5_subgroup
        for row in s5_table.rows:
            assert restrict(row, h) == restrict(row, a5_subgroup)

    def test_a_group_of_the_same_degree_and_other_generators_is_refused(self):
        # S3 and C3 both act on 3 points and have 3 classes: only their
        # generators tell them apart
        s3 = parse_group_spec("S3")
        h = s3.subgroup([perm_of(s3, "(0,1,2)")])
        with pytest.raises(GroupMismatchError,
                           match="^subgroup does not belong to the function's group$"):
            restrict(trivial_character(parse_group_spec("C3")), h)


class TestRestrictionReport:
    def test_degree6_splits(self, s5_group, s5_table, a5_subgroup, a5_table):
        chi5 = s5_char(s5_table, s5_group, 6, "(0,1)", ratio(0))
        report = restriction_report(chi5, a5_subgroup, a5_table)
        assert report.case == "splits"
        assert report.norm == 2
        assert sorted(report.multiplicities, reverse=True)[:2] == [1, 1]
        assert len(report.constituents) == 2
        # the two constituents are the degree-3 rows
        for idx in report.constituents:
            assert a5_table.degrees[idx] == 3
        assert report.vanishes_off_subgroup
        # odd classes of S5 carry value 0: (12), (1234), (12)(345)
        for rep_text in ["(0,1)", "(0,1,2,3)", "(0,1)(2,3,4)"]:
            assert chi5.values[class_index_of(s5_group, rep_text)].is_zero()

    def test_degree5_restricts_irreducibly(self, s5_group, s5_table, a5_subgroup, a5_table):
        chi6 = s5_char(s5_table, s5_group, 5, "(0,1)", ratio(1))
        report = restriction_report(chi6, a5_subgroup, a5_table)
        assert report.case == "irreducible"
        assert report.norm == 1
        assert not report.vanishes_off_subgroup
        assert chi6.values[class_index_of(s5_group, "(0,1)")] == 1

    def test_trivial_character_report(self, s5_group, s5_table, a5_subgroup, a5_table):
        report = restriction_report(s5_table.rows[0], a5_subgroup, a5_table)
        assert report.case == "irreducible"
        assert report.norm == 1
        assert report.multiplicities[0] == 1

    def test_every_s5_irreducible_has_norm_one_or_two(
        self, s5_table, a5_subgroup, a5_table
    ):
        for row in s5_table.rows:
            report = restriction_report(row, a5_subgroup, a5_table)
            assert report.norm in (1, 2)
            if report.norm == 2:
                assert len(report.constituents) == 2
                assert all(report.multiplicities[i] == 1 for i in report.constituents)
                assert report.vanishes_off_subgroup
            else:
                assert not report.vanishes_off_subgroup

    def test_regular_restriction_pairing(self, s5_group, a5_subgroup, a5_table):
        # <chi_reg|_H, psi>_H = |G| psi(1) / |H|
        reg = regular_character(s5_group)
        restricted = restrict(reg, a5_subgroup)
        for psi in a5_table.rows:
            got = inner_product(restricted, psi)
            expected = Fraction(s5_group.order, a5_subgroup.order) * psi.values[0]
            assert got == expected

    def test_subgroup_is_its_own_group(self, s5_table, a5_subgroup):
        sub = a5_subgroup
        assert isinstance(sub, PermGroup)
        assert sub.as_group() is sub
        table = build_character_table(sub)
        assert table.group is sub
        assert table.degrees == (1, 3, 3, 4, 5)
        for i, chi in enumerate(s5_table.rows):
            direct = restriction_report(chi, sub, table, char_index=i)
            wrapped = restriction_report(chi, sub.as_group(), table, char_index=i)
            assert direct.restricted == wrapped.restricted
            assert direct.multiplicities == wrapped.multiplicities
            assert (direct.norm, direct.case, direct.vanishes_off_subgroup) == (
                wrapped.norm, wrapped.case, wrapped.vanishes_off_subgroup)

    @pytest.mark.parametrize("parent", ["the same", "parsed again"])
    def test_a_table_of_an_equal_subgroup_is_its_table(
            self, s5_group, s5_table, a5_subgroup, a5_table, parent):
        # the subgroup made again, by a second subgroup call with A5's
        # generators, on S5 itself or on S5 parsed again, reads a5_table,
        # built on the first subgroup
        g = s5_group if parent == "the same" else parse_again("S5")
        h = g.subgroup(list(a5_subgroup.generators))
        assert h is not a5_subgroup
        for i, row in enumerate(s5_table.rows):
            again = restriction_report(row, h, a5_table, char_index=i)
            first = restriction_report(row, a5_subgroup, a5_table, char_index=i)
            assert again.restricted == first.restricted
            assert (again.multiplicities, again.norm, again.case, again.vanishes_off_subgroup) == (
                first.multiplicities, first.norm, first.case, first.vanishes_off_subgroup)

    def test_a_table_of_another_subgroup_is_refused(self):
        # <(0,1,2)> in S3 and C3 both act on 3 points, with one generator
        # each, which the two groups spell differently
        s3 = parse_group_spec("S3")
        h = s3.subgroup([perm_of(s3, "(0,1,2)")])
        c3_table = build_character_table(parse_group_spec("perm:3:(0,2,1)"))
        with pytest.raises(GroupMismatchError, match="^table does not belong to the subgroup$"):
            restriction_report(trivial_character(s3), h, c3_table)

    def test_inconsistent_multiplicities_are_a_consistency_failure(self, monkeypatch, capsys):
        # a subgroup table of <(0,1)> < S3 that holds the trivial row twice:
        # the multiplicities (1, 1) disagree with the norm 1 of the trivial
        # restriction.  That is a consistency failure, not a group mismatch
        g = parse_group_spec("S3")
        h = g.subgroup([perm_of(g, "(0,1)")])
        doubled = CharacterTable(h, [trivial_character(h), trivial_character(h)])
        with pytest.raises(AssertionError, match="inconsistent with restriction norm"):
            restriction_report(trivial_character(g), h, doubled)
        built = cli.build_character_table

        def doubled_for_the_subgroup(group):
            if group.order != 2:
                return built(group)
            return CharacterTable(group, [trivial_character(group)] * 2)

        monkeypatch.setattr(cli, "build_character_table", doubled_for_the_subgroup)
        assert cli.main(["restrict", "S3", "--subgroup", "perm:2:(0,1)", "--char", "1"]) == 1
        assert "consistency failure: multiplicities" in capsys.readouterr().err

    def test_the_fusion_map_is_made_once_per_report(
            self, monkeypatch, s5_table, a5_subgroup, a5_table):
        # the restriction and the vanishing off H read one fusion map
        calls = []
        fusion = Subgroup.fusion_to_parent
        monkeypatch.setattr(Subgroup, "fusion_to_parent",
                            lambda self: calls.append(self) or fusion(self))
        for row in s5_table.rows:
            restriction_report(row, a5_subgroup, a5_table)
        assert calls == [a5_subgroup] * len(s5_table)

    def test_regular_restriction_pairing_s4(self):
        g = parse_group_spec("S4")
        a4 = parse_group_spec("A4")
        sub = g.subgroup(list(a4.generators))
        sub_table = build_character_table(sub.as_group())
        restricted = restrict(regular_character(g), sub)
        for psi in sub_table.rows:
            assert inner_product(restricted, psi) == 2 * psi.values[0]


class TestRegularDecomposition:
    @pytest.mark.parametrize("name", ["S5", "Q8", "C1", "A5", "D6"])
    def test_matches_degrees(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        assert regular_decomposition(table) == list(table.degrees)


class TestBurnsideClassTest:
    def test_s5_inconclusive_but_witness_found(self):
        g = parse_group_spec("S5")
        report = burnside_class_test(g)
        assert report.verdict == "inconclusive"
        assert not any(e.is_prime_power for e in report.entries)
        sizes = {e.size: e.factorization for e in report.entries}
        assert sizes[15] == {3: 1, 5: 1}
        assert sizes[10] == {2: 1, 5: 1}
        # the witness search still finds A5
        assert report.witness is not None
        assert report.witness.order == 60
        assert not report.simple

    def test_q8_center_witness(self):
        g = parse_group_spec("Q8")
        report = burnside_class_test(g)
        assert report.verdict == "not simple"
        assert not report.simple
        assert report.witness.order == 2
        assert set(report.witness.elements) == set(g.center().elements)

    def test_s6_witness_is_a6(self):
        report = burnside_class_test(parse_group_spec("S6"))
        assert report.witness_order == 360
        assert not report.simple

    def test_a5_inconclusive_and_simple(self):
        report = burnside_class_test(parse_group_spec("A5"))
        assert report.verdict == "inconclusive"
        assert report.simple
        assert report.witness is None
        factored = {e.size: e.factorization for e in report.entries}
        assert factored[20] == {2: 2, 5: 1}
        assert factored[15] == {3: 1, 5: 1}
        assert factored[12] == {2: 2, 3: 1}

    def test_s8_closures_read_each_class_product_from_the_smaller_class(self, monkeypatch):
        # a group the parse cache has not seen, with its classes computed.
        # Its 21 closures make about 250,000 products; about 500,000 when
        # every member of the seed class was multiplied into each class
        # reached, however large the seed class
        s8 = parse_group_spec("S8")
        g = PermGroup(s8.degree, s8.generators)
        g.conjugacy_classes()
        count = count_perm_products(monkeypatch)
        report = burnside_class_test(g)
        assert report.witness_order == 20160
        assert not report.simple
        assert count[0] < 300_000

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_verdict_agrees_with_is_simple(self, name):
        g = parse_group_spec(name)
        report = burnside_class_test(g)
        if report.verdict == "not simple":
            assert not g.is_simple()


class TestBurnsideSolvability:
    def test_s4(self):
        report = burnside_solvability(parse_group_spec("S4"))
        assert report.theorem_applies
        assert report.solvable
        assert report.series_orders == [12, 4, 1]

    def test_a5(self):
        report = burnside_solvability(parse_group_spec("A5"))
        assert not report.theorem_applies
        assert not report.solvable

    def test_c6(self):
        report = burnside_solvability(parse_group_spec("C6"))
        assert report.theorem_applies
        assert report.solvable


class TestCheckAll:
    @pytest.mark.parametrize("name", ["S3", "Q8", "A4", "S4", "D5", "A5"])
    def test_builtin_tables_pass(self, name):
        table = build_character_table(parse_group_spec(name))
        report = check_all(table)
        failing = [r.name for r in report.results if not r.passed]
        assert report.ok, f"failing checks: {failing}"

    def test_s3_column_of_transpositions(self):
        g = parse_group_spec("S3")
        table = build_character_table(g)
        col = class_index_of(g, "(0,1)")
        acc = Cyclo.zero()
        for row in table.rows:
            acc = acc + row.values[col] * row.values[col].conj()
        assert acc == 2 == Fraction(6, 3)

    def test_perturbed_table_fails(self):
        g = parse_group_spec("S3")
        table = build_character_table(g)
        rows = [ClassFunction(g, row.values) for row in table.rows]
        bad_values = list(rows[2].values)
        bad_values[1] = bad_values[1] + 1
        rows[2] = ClassFunction(g, bad_values)
        bad_table = CharacterTable(g, rows)
        report = check_all(bad_table)
        assert not report.ok
        names = {r.name for r in report.results if not r.passed}
        assert "rows-of-norm-one-and-distinct" in names

    def test_a_table_on_a_group_parsed_again_passes(self):
        # the rows are on S3's first parse, the table on its second
        rows = build_character_table(parse_group_spec("S3")).rows
        report = check_all(CharacterTable(parse_again("S3"), rows))
        failing = [r.name for r in report.results if not r.passed]
        assert report.ok, f"failing checks: {failing}"

    def test_values_held_at_a_larger_order_pass(self):
        # every value re-embedded in Q(zeta_6), rationals included: products
        # of such values come back at their natural order, so the twist rows
        # must be found by value, not by coefficient vector
        g = parse_group_spec("A4")
        table = build_character_table(g)
        rows = [ClassFunction(g, [v.change_order(6) for v in row.values])
                for row in table.rows]
        report = check_all(CharacterTable(g, rows))
        failing = [r.name for r in report.results if not r.passed]
        assert report.ok, f"failing checks: {failing}"

    def test_a_row_copied_as_values_of_its_own_fails_only_the_row_check(self):
        # A4's row 1 over its row 2, every value re-held at order 6 as an
        # object of its own: the two equal rows have cells of their own, so
        # only a test of the values tells them apart
        g = parse_group_spec("A4")
        vals = [list(r.values) for r in build_character_table(g).rows]
        vals[2] = vals[1]
        table = CharacterTable(g, [ClassFunction(g, [v.change_order(6) for v in row])
                                   for row in vals])
        assert len(set(map(tuple, table.cells))) == len(table)
        assert table.rows[1] == table.rows[2]
        report = check_all(table)
        assert {r.name for r in report.results if not r.passed} == {
            "rows-of-norm-one-and-distinct"}

    def test_commutator_subgroup_is_closed_once(self, monkeypatch):
        # a group of its own, not one the parse cache has seen; the build
        # closes G' to seed its split, and check_all closes none, and reads
        # neither the power maps nor the class of each element
        g = PermGroup(4, parse_group_spec("S4").generators)
        calls = []
        closure = PermGroup._normal_closure_of
        monkeypatch.setattr(PermGroup, "_normal_closure_of",
                            lambda self, seed: calls.append(seed) or closure(self, seed))
        table = build_character_table(g)
        assert len(calls) == 1
        table.split_classes  # the class matrices the central identity reads

        class Guarded:  # the class data, refusing the maps check_all does not read
            def __getattr__(self, name):
                assert name not in ("power_class", "member_index"), name
                return getattr(g.conjugacy_classes(), name)

        table.class_data = Guarded()
        assert check_all(table).ok
        assert len(calls) == 1

    def test_degree_one_row_that_is_not_a_homomorphism_fails(self):
        # a linear row of C5 with its values at two classes swapped: still
        # a row of degree 1 and norm 1, distinct from the others, but chi(s g)
        # != chi(s) chi(g), so its central character, the row itself, is no
        # algebra map
        g = parse_group_spec("C5")
        vals = [list(r.values) for r in build_character_table(g).rows]
        vals[1][2], vals[1][3] = vals[1][3], vals[1][2]
        report = check_all(CharacterTable(g, [ClassFunction(g, v) for v in vals]))
        assert not report.ok
        assert {r.name for r in report.results if not r.passed} == {
            "central-character-identity"}

    @pytest.mark.parametrize("degree", [0, Fraction(1, 2)], ids=["zero", "half"])
    def test_degree_that_is_not_a_divisor_fails(self, degree):
        # failures are data: a zero degree is reported, not divided by, and
        # a fractional one is below 1, though 6 % (1/2) == 0
        g = parse_group_spec("S3")
        vals = [list(r.values) for r in build_character_table(g).rows]
        vals[-1][0] = degree
        report = check_all(CharacterTable(g, [ClassFunction(g, v) for v in vals]))
        assert not report.ok
        assert {r.name for r in report.results if not r.passed} == {
            "degrees-ascending", "rows-of-norm-one-and-distinct", "central-character-identity"}

    def test_a_zero_degree_row_passes_the_central_identity_only_when_zero(self):
        # S4's last row made the indicator of class 3, a 4-cycle, outside its
        # split classes S = (1, 2).  At degree 0 the identity asks w_j w_k = 0
        # for j in S alone, and the row is 0 there, so it meets every pair:
        # only the test that a zero-degree row is zero fails it.  S3 cannot
        # show this, since its split classes are all its nontrivial classes
        g = parse_group_spec("S4")
        built = build_character_table(g)
        h = len(built)
        table = CharacterTable(g, [*built.rows[:-1],
                                   ClassFunction(g, [int(l == 3) for l in range(h)])])
        assert 3 not in table.split_classes
        report = check_all(table)
        assert {r.name for r in report.results if not r.passed} == {
            "degrees-ascending", "rows-of-norm-one-and-distinct", "central-character-identity"}

    def test_the_ring_tells_every_sum_from_zero(self):
        # a rational table's ring is Z/M with M = 2^W - 1, so a sum of
        # products of values is 0 exactly when its residue is, while the
        # 1-norm of its terms stays below M.  S7's last row made 35, its
        # largest degree, at every class: at the split class of 21 elements
        # and the class of 840, each side of the central identity is
        # 35^2 * 21 * 840, beyond the norms' |G| (A^2 + D^2)
        g = parse_group_spec("S7")
        built = build_character_table(g)
        h = len(built)
        table = CharacterTable(g, [*built.rows[:-1], ClassFunction(g, [35] * h)])
        sizes = table.class_data.sizes
        ints = [[int(v.as_rational()) for v in row.values] for row in table.rows]
        weighted = [[r * v for r, v in zip(sizes, row)] for row in ints]
        norms = max(sum(abs(a * b) for a, b in zip(x, w)) + g.order
                    for x, w in zip(ints, weighted))
        central = max(
            abs(w[j] * w[k]) + abs(row[0]) * sum(a * abs(w[l]) for l, a in enumerate(a_jk))
            for row, w in zip(ints, weighted)
            for j, m_j in table.split_matrices.items()
            for k, a_jk in enumerate(m_j)
        )
        assert central > norms
        assert max(central, norms) < analysis._ring(table)[0]

    def test_central_identity_reads_only_the_split_class_matrices(self, monkeypatch):
        # the identity is checked for j in the split classes S.  A built
        # table holds the matrices its split read, R, so check_all computes
        # S \ R alone: none on D4xS3, and classes 2 and 5 on D8, whose split
        # reads [1, 3] (SPLIT_READS).  A table made by hand runs the split
        # once, which computes R, and then S \ R: each matrix is made once
        computed, splits, cubes = [], [], []
        real_matrix, real_split = tablegen.class_matrix, tablegen.modp_eigenbasis

        def matrix_spy(data, j):
            computed.append(j)
            return real_matrix(data, j)

        def split_spy(*args):
            splits.append(args)
            return real_split(*args)

        monkeypatch.setattr(tablegen, "class_matrix", matrix_spy)
        monkeypatch.setattr(tablegen, "modp_eigenbasis", split_spy)
        monkeypatch.setattr(tablegen, "class_constants", lambda g: cubes.append(g))
        for spec, missing in [(D4XS3, []), ("D8", [2, 5])]:
            g = parse_group_spec(spec)
            table = build_character_table(g)
            reads = list(computed)
            assert 0 < len(reads) < len(table) - 1
            computed.clear()
            splits.clear()
            assert check_all(table).ok and check_all(table).ok
            split = table.split_classes
            assert computed == missing == [j for j in split if j not in reads]
            assert not splits

            computed.clear()
            by_hand = CharacterTable(g, [ClassFunction(g, r.values) for r in table.rows])
            assert check_all(by_hand).ok and check_all(by_hand).ok
            assert len(splits) == 1
            assert by_hand.split_classes == split
            assert computed == reads + missing
            computed.clear()
        assert not cubes

    def test_report_rendering(self):
        table = build_character_table(parse_group_spec("S3"))
        report = check_all(table)
        for line in report.lines():
            assert line.startswith(("PASS ", "FAIL "))
            assert ": " in line
        payload = report.to_json()
        assert payload["ok"] is True
        assert len(payload["checks"]) == len(report.results)


def _corrupted(table, kind):
    """The table's rows with one corruption applied, as a new table."""
    g = table.group
    vals = [list(r.values) for r in table.rows]
    h = len(vals)
    last = vals[-1]
    if kind == "add-one":
        last[1] = last[1] + 1
    elif kind == "conjugate":
        i, j = next((i, j) for i in range(h) for j in range(h)
                    if vals[i][j] != vals[i][j].conj())
        vals[i][j] = vals[i][j].conj()
    elif kind == "swap-columns":
        # classes 1 and h-1 differ in size in every group tested
        for row in vals:
            row[1], row[-1] = row[-1], row[1]
    elif kind == "negate-row":
        vals[0] = [-v for v in vals[0]]
    elif kind == "duplicate-row":
        vals[-1] = list(vals[1])
    elif kind == "times-zeta3":
        j = next(j for j in range(1, h) if not last[j].is_zero())
        last[j] = last[j] * root_of_unity(3)
    elif kind == "halve":
        # the last entry off column 1 whose half has a denominator
        i, j = next((i, j) for i in reversed(range(h)) for j in range(1, h)
                    if (vals[i][j] * Fraction(1, 2)).den > 1)
        vals[i][j] = vals[i][j] * Fraction(1, 2)
    elif kind == "plus-modulus":
        # the modulus check_all reads the clean table in
        last[1] = last[1] + analysis._ring(table)[0]
    return CharacterTable(g, [ClassFunction(g, v) for v in vals])


ROWS, CENTRAL = "rows-of-norm-one-and-distinct", "central-character-identity"

# the exact set of checks that fail on each corruption of every table; a
# conjugated value or one times zeta_3 keeps its absolute value, so the
# row's norm stays 1
CORRUPTION_FAILURES = {
    "add-one": {ROWS, CENTRAL},
    "conjugate": {CENTRAL},
    "swap-columns": {ROWS, CENTRAL},
    "negate-row": {"degrees-ascending"},
    "duplicate-row": {ROWS},
    "times-zeta3": {CENTRAL},
    "halve": {ROWS, CENTRAL},
    "plus-modulus": {ROWS, CENTRAL},
}

D4XS3 = "perm:7:(1,3,0,2);(0,1);(4,6,5);(4,6)"

# of these tables only A4's has non-real entries to conjugate
CORRUPTION_CASES = [
    (name, kind)
    for name in ["S3", "Q8", "A4", "S4", "A5", D4XS3]
    for kind in sorted(CORRUPTION_FAILURES)
    if kind != "conjugate" or name == "A4"
]


def _classes_swapped(table, j, k):
    """The table's rows with the values at classes j and k swapped, as a new
    table."""
    g = table.group
    rows = []
    for row in table.rows:
        vals = list(row.values)
        vals[j], vals[k] = vals[k], vals[j]
        rows.append(ClassFunction(g, vals))
    return CharacterTable(g, rows)


A5XC3 = "perm:8:(0,1,2);(0,1,2,3,4);(5,6,7)"

# two classes of one size swapped in every row: the row and column pairings
# and the class sizes cannot tell, only the class constants can
CLASS_SWAPS = [
    # A5xC3, the two classes of 5-cycles: caught only by pairs with k > j
    (A5XC3, 3, 4),
    # S6, transpositions and triple transpositions: a rational table
    ("S6", 1, 2),
]


class TestCheckAllCorruptions:
    @pytest.mark.parametrize("name, j, k", CLASS_SWAPS)
    def test_swapped_classes_fail_only_the_central_identity(self, name, j, k):
        g = parse_group_spec(name)
        sizes = g.conjugacy_classes().sizes
        assert sizes[j] == sizes[k]
        report = check_all(_classes_swapped(build_character_table(g), j, k))
        assert {r.name for r in report.results if not r.passed} == {
            "central-character-identity"}

    @pytest.mark.parametrize("name, kind", CORRUPTION_CASES)
    def test_named_checks_fail(self, name, kind):
        g = parse_group_spec(name)
        report = check_all(_corrupted(build_character_table(g), kind))
        assert {r.name for r in report.results if not r.passed} == CORRUPTION_FAILURES[kind]
        assert [r.name for r in report.results] == [
            r.name for r in check_all(build_character_table(g)).results
        ]


@pytest.mark.parametrize("name, kind", CORRUPTION_CASES)
def test_corrupted_tables_index_their_own_value_objects(name, kind):
    # a corrupted table is made by hand: some of its values are new objects
    # equal to others, and duplicate-row shares one row's objects with another
    assert_value_index(_corrupted(build_character_table(parse_group_spec(name)), kind))


VERDICT_TABLES = (
    [("corrupt", name, kind) for name, kind in CORRUPTION_CASES]
    + [("swap", name, (j, k)) for name, j, k in CLASS_SWAPS]
    + [("clean", name, None)
       for name in ["S3", "Q8", "A4", "S4", "A5", "S5", "A6", "A7", "D8", D4XS3]]
)


def _verdict_table(case, name, arg):
    """The table of one `VERDICT_TABLES` case."""
    table = build_character_table(parse_group_spec(name))
    if case == "corrupt":
        return _corrupted(table, arg)
    if case == "swap":
        return _classes_swapped(table, *arg)
    return table


@pytest.mark.parametrize("case, name, arg", VERDICT_TABLES,
                         ids=[f"{c}-{n}-{a}" for c, n, a in VERDICT_TABLES])
def test_report_is_the_same_over_every_generating_set(case, name, arg):
    # the central identity holds for j in a set S that generates Z(CG) and
    # every k exactly when it holds for every pair, so the report is the
    # same with every nontrivial class in place of the split classes
    table = _verdict_table(case, name, arg)
    report = check_all(table).to_json()
    read = []

    class Handed(dict):  # every nontrivial class's matrix, noting each read
        def items(self):
            for j, m_j in super().items():
                read.append(j)
                yield j, m_j

    data = table.class_data
    table.split_matrices = Handed((j, tablegen.class_matrix(data, j)) for j in range(1, len(table)))
    assert check_all(table).to_json() == report
    assert sorted(read) == list(range(1, len(table)))


def _implied_checks_failing(table):
    """The names of the checks that check_all does not run, since the
    others imply them, that fail on the table, each decided here from its
    definition (README, "Implied checks")."""
    g, rows, degrees = table.group, table.rows, table.degrees
    data = table.class_data
    h = len(data)
    failing = set()
    if len(rows) != h:
        failing.add("square-table")
    try:
        regular_ok = decompose(regular_character(g), table) == list(degrees)
    except NotACharacterError:
        regular_ok = False
    if not regular_ok:
        failing.add("regular-decomposition")
    columns = [[row.values[l] for row in rows] for l in range(h)]
    if any(columns[l] == columns[m] for l in range(h) for m in range(l)):
        failing.add("columns-distinct")
    if any(v != v.conj() for j in range(h) if data.inverse_class[j] == j for v in columns[j]):
        failing.add("self-inverse-classes-real")
    # in floats with a 1e-9 tolerance: no ring map preserves a magnitude
    if any(abs(v.to_float()) > n + 1e-9 for n, row in zip(degrees, rows) for v in row.values):
        failing.add("value-magnitude-bound")
    if g.order <= 60 and any(element_sum_pairing(a, rows[-1]) != inner_product(a, rows[-1])
                             for a in (rows[0], rows[-1])):
        failing.add("inner-product-oracle")
    return failing


def test_implied_checks_fail_only_where_a_kept_check_fails():
    # each of the six checks that check_all does not run fails only on a
    # table that check_all already fails.  Four of them fail somewhere here,
    # so the implications are exercised; square-table fails on no
    # constructed table, and inner-product-oracle only on a library fault
    seen = Counter()
    for case, name, arg in VERDICT_TABLES:
        table = _verdict_table(case, name, arg)
        implied = _implied_checks_failing(table)
        assert not implied or not check_all(table).ok, (case, name, arg, implied)
        seen.update(implied)
    assert seen == {"columns-distinct": 3, "regular-decomposition": 6,
                    "self-inverse-classes-real": 7, "value-magnitude-bound": 12}


SEEDED_GROUPS = ["S3", "Q8", "A4", "S4", "D5", "C5", "C7", "A5", "S5", "A6", "D8",
                 D4XS3, A5XC3]
EDITS = ["add", "copy-entry", "conjugate-entry", "galois-row", "product-row",
         "swap-columns", "negate-row", "swap-rows"]


def _edited(vals, kind, rng, exponent):
    """The rows vals, a list of value lists, with one seeded edit of the
    kind made in place; an edit may leave the rows as they were, or
    reorder them."""
    h = len(vals)
    # a column off the first, so that every degree stays rational
    i, j = rng.randrange(h), rng.randrange(1, h)
    k, l = rng.randrange(h), rng.randrange(h)
    if kind == "add":
        vals[i][j] = vals[i][j] + rng.choice((1, -1, root_of_unity(3), Fraction(1, 2)))
    elif kind == "copy-entry":
        vals[i][j] = vals[k][l]
    elif kind == "conjugate-entry":
        vals[i][j] = vals[i][j].conj()
    elif kind == "galois-row":
        s = rng.choice([s for s in range(1, exponent) if gcd(s, exponent) == 1])
        vals[i] = [v.galois(s) for v in vals[i]]
    elif kind == "product-row":
        vals[k] = [a * b for a, b in zip(vals[i], vals[j])]
    elif kind == "swap-columns":
        j, k = rng.sample(range(1, h), 2)
        for row in vals:
            row[j], row[k] = row[k], row[j]
    elif kind == "negate-row":
        vals[i] = [-v for v in vals[i]]
    elif kind == "swap-rows":
        vals[i], vals[j] = vals[j], vals[i]


def test_check_all_passes_exactly_the_built_table():
    # the three checks determine the table: a table passes exactly when its
    # rows, which the constructor sorts, are the built table's.  Each group
    # takes 8 seeded edits of each kind; a Galois image or a product with a
    # linear row is a row of the table, so such an edit, like a row swap,
    # can leave the rows as they were
    for case, name, arg in VERDICT_TABLES:
        table = _verdict_table(case, name, arg)
        built = build_character_table(table.group)
        assert check_all(table).ok == (table.rows == built.rows), (case, name, arg)
    rng = random.Random(835)
    verdicts = Counter()
    for name in SEEDED_GROUPS:
        g = parse_group_spec(name)
        built = build_character_table(g)
        for kind in EDITS:
            for _ in range(8):
                vals = [list(r.values) for r in built.rows]
                _edited(vals, kind, rng, g.exponent)
                table = CharacterTable(g, [ClassFunction(g, v) for v in vals])
                ok = check_all(table).ok
                assert ok == (table.rows == built.rows), (name, kind, vals)
                verdicts[ok] += 1
    assert verdicts == {True: 329, False: 503}


M11 = "perm:11:(0,1,2,3,4,5,6,7,8,9,10);(2,6,10,7)(3,9,4,5)"
M12 = M11.replace("perm:11:", "perm:12:") + ";(0,11)(1,10)(2,5)(3,7)(4,8)(6,9)"

# the ATLAS tables (Conway et al., 1985): degrees, class sizes and the orders
# of the fields the values are held in
MATHIEU = [
    (M11, 7920, (1, 10, 10, 10, 11, 16, 16, 44, 45, 55),
     [1, 165, 440, 720, 720, 990, 990, 990, 1320, 1584], {1, 8, 11}),
    (M12, 95040, (1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176),
     [1, 396, 495, 1760, 2640, 2970, 2970, 7920, 8640, 8640, 9504, 9504, 11880,
      11880, 15840], {1, 11}),
]


@pytest.mark.parametrize("spec, order, degrees, sizes, orders", MATHIEU,
                         ids=["M11", "M12"])
def test_mathieu_groups_at_the_cap_edge(spec, order, degrees, sizes, orders):
    # M12 is the largest group in the tests under the default cap of 100,000
    g = parse_group_spec(spec)
    assert g.order == order
    table = build_character_table(g)
    assert table.degrees == degrees
    assert sorted(table.class_data.sizes) == sizes
    assert {v.order for row in table.rows for v in row.values} == orders
    report = check_all(table)
    assert report.ok, [r.name for r in report.results if not r.passed]


def induce(psi, group):
    """Ind_H^G psi for psi on the subgroup H of group G: at the G-class j of
    size r_j, |G| / (r_j |H|) times the sum, over the H-classes k that fuse
    into j, of s_k psi(h_k), with s_k the size of H-class k."""
    h = psi.group
    sums = [0] * len(group.conjugacy_classes())
    for size, j, value in zip(h.conjugacy_classes().sizes, h.fusion_to_parent(), psi.values):
        sums[j] += size * value
    return ClassFunction(group, [s * Fraction(group.order, r * h.order)
                                 for s, r in zip(sums, group.conjugacy_classes().sizes)])


def alternating_subgroup(g):
    return g.subgroup(list(parse_group_spec(f"A{g.degree}").generators))


@pytest.mark.parametrize("spec, subgroup", [
    ("S5", alternating_subgroup),
    ("S6", alternating_subgroup),
    ("S7", alternating_subgroup),
    (M12, lambda g: g.subgroup(list(g.generators[:2]))),
], ids=["A5<S5", "A6<S6", "A7<S7", "M11<M12"])
def test_frobenius_reciprocity(spec, subgroup):
    # <Ind psi, chi>_G = <psi, Res chi>_H (Isaacs, ch. 5): the restriction
    # multiplicities are the transpose of the induction multiplicities, with
    # each table built on its own.  A5 has values in Q(zeta_5), and M12 is
    # the one parent here with non-real values, which restricting from the
    # inverse class would conjugate
    g = parse_group_spec(spec)
    h = subgroup(g)
    table, sub_table = build_character_table(g), build_character_table(h)
    restriction = [decompose(restrict(chi, h), sub_table) for chi in table.rows]
    induction = [decompose(induce(psi, g), table) for psi in sub_table.rows]
    assert restriction == [list(column) for column in zip(*induction)]
    for psi in sub_table.rows:
        assert induce(psi, g).values[0] == h.index * psi.values[0]
