import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartab.classfun import (
    ClassFunction,
    NotACharacterError,
    bilinear_form,
    decompose,
    dft_cyclic,
    inner_product,
    inverse_dft_cyclic,
    is_irreducible,
    plancherel_check,
    regular_character,
    sym_alt_square,
    trivial_character,
)
from chartab.cyclo import Cyclo, CycloError, dot, from_rational, root_of_unity
from chartab.permgroup import GroupMismatchError, parse_group_spec
from chartab.tablegen import build_character_table

from conftest import BUILTINS_LE_24, class_index_of, element_sum_pairing, parse_again, ratio


def row_by_degree_and_value(table, degree, col, value):
    """The unique table row with the given degree and value at a column."""
    hits = [
        r for r in table.rows
        if r.values[0] == degree and r.values[col] == value
    ]
    assert len(hits) == 1
    return hits[0]


@pytest.fixture(scope="module")
def s5():
    g = parse_group_spec("S5")
    return g, build_character_table(g)


def paper_chi(table, index, s5_group):
    """S5 characters by their worked-example numbering."""
    c12 = class_index_of(s5_group, "(0,1)")
    c123 = class_index_of(s5_group, "(0,1,2)")
    lookup = {
        1: (1, c12, ratio(1)),
        2: (1, c12, ratio(-1)),
        3: (4, c12, ratio(2)),
        4: (4, c12, ratio(-2)),
        5: (6, c12, ratio(0)),
        6: (5, c12, ratio(1)),
        7: (5, c12, ratio(-1)),
    }
    degree, col, val = lookup[index]
    return row_by_degree_and_value(table, degree, col, val)


class TestInnerProduct:
    def test_degree4_row_is_normalized(self, s5):
        g, table = s5
        chi3 = paper_chi(table, 3, g)
        assert inner_product(chi3, chi3) == 1

    def test_sym_square_norm_three(self, s5):
        g, table = s5
        chi3 = paper_chi(table, 3, g)
        chi_s, _ = sym_alt_square(chi3)
        assert inner_product(chi_s, chi_s) == 3

    def test_trivial_normalized(self):
        for name in ["C1", "S3", "Q8"]:
            g = parse_group_spec(name)
            t = trivial_character(g)
            assert inner_product(t, t) == 1

    def test_hermitian_and_positive(self):
        rng = random.Random(11)
        g = parse_group_spec("A4")
        h = len(g.conjugacy_classes())
        for _ in range(10):
            f1 = ClassFunction(
                g, [root_of_unity(6, rng.randrange(6)) * rng.randrange(-2, 3)
                    for _ in range(h)]
            )
            f2 = ClassFunction(
                g, [root_of_unity(6, rng.randrange(6)) * rng.randrange(-2, 3)
                    for _ in range(h)]
            )
            assert inner_product(f1, f2) == inner_product(f2, f1).conj()
            norm = inner_product(f1, f1)
            assert norm.conj() == norm
            assert norm.to_float().real >= 0
            assert (norm == 0) == f1.is_zero()
        zero = ClassFunction(g, [Cyclo.zero()] * h)
        assert inner_product(zero, zero) == 0

    def test_group_mismatch(self):
        f1 = trivial_character(parse_group_spec("S3"))
        f2 = trivial_character(parse_group_spec("C6"))
        with pytest.raises(GroupMismatchError):
            inner_product(f1, f2)

    @pytest.mark.parametrize("name", ["S3", "Q8", "A4", "D5", "S4"])
    def test_classwise_equals_elementwise(self, name):
        # brute-force oracle: sum over all |G| elements
        rng = random.Random(23)
        g = parse_group_spec(name)
        h = len(g.conjugacy_classes())
        for _ in range(5):
            f1 = ClassFunction(g, [ratio(rng.randrange(-3, 4)) for _ in range(h)])
            f2 = ClassFunction(
                g, [root_of_unity(4, rng.randrange(4)) for _ in range(h)]
            )
            assert element_sum_pairing(f1, f2) == inner_product(f1, f2)


class TestBilinearForm:
    def test_agrees_with_inner_product_on_characters(self):
        g = parse_group_spec("S4")
        table = build_character_table(g)
        for r1 in table.rows:
            for r2 in table.rows:
                assert bilinear_form(r1, r2) == inner_product(r1, r2)

    def test_symmetry(self):
        rng = random.Random(5)
        g = parse_group_spec("D4")
        h = len(g.conjugacy_classes())
        for _ in range(10):
            f1 = ClassFunction(g, [ratio(rng.randrange(-3, 4)) for _ in range(h)])
            f2 = ClassFunction(g, [ratio(rng.randrange(-3, 4)) for _ in range(h)])
            assert bilinear_form(f1, f2) == bilinear_form(f2, f1)

    def test_central_idempotent_on_c3(self):
        # constant 1/3 paired with itself: direct summation over 3 elements
        g = parse_group_spec("C3")
        f = ClassFunction(g, [ratio(1, 3)] * 3)
        assert bilinear_form(f, f) == Fraction(1, 9)
        brute = sum(Fraction(1, 3) * Fraction(1, 3) for _ in range(3)) / 3
        assert brute == Fraction(1, 9)


# each operation of a class function f with the rows of a table: the
# pairings and the arithmetic read the rows' values at f's class positions
WITH_A_TABLE = {
    "eq": lambda f, table: f == table.rows[0],
    "mul": lambda f, table: [(f * row).values for row in table.rows],
    "add": lambda f, table: [(f + row).values for row in table.rows],
    "sub": lambda f, table: [(f - row).values for row in table.rows],
    "inner_product": lambda f, table: [inner_product(f, row) for row in table.rows],
    "bilinear_form": lambda f, table: [bilinear_form(f, row) for row in table.rows],
    "decompose": decompose,
}


class TestProductSumConjugate:
    @pytest.mark.parametrize("op", WITH_A_TABLE)
    def test_a_group_parsed_again_meets_a_table_of_the_first_parse(self, op):
        # S3 parsed twice, with its first parse dropped from the parse cache
        # between: the two group objects have one degree and one generator
        # tuple, so one enumeration and one class order
        g = parse_group_spec("S3")
        table = build_character_table(g)
        same = WITH_A_TABLE[op](trivial_character(g), table)
        assert WITH_A_TABLE[op](trivial_character(parse_again("S3")), table) == same
        if op == "eq":
            assert same is True

    @pytest.mark.parametrize("op", ["mul", "sub", "inner_product", "decompose"])
    def test_a_group_of_the_same_degree_and_other_generators_is_refused(self, op):
        # S3 and C3 both act on 3 points and have 3 classes: only their
        # generators tell them apart
        table = build_character_table(parse_group_spec("S3"))
        with pytest.raises(GroupMismatchError, match="^class functions on different groups$"):
            WITH_A_TABLE[op](trivial_character(parse_group_spec("C3")), table)

    def test_a_group_of_the_same_degree_and_other_generators_is_unequal(self):
        s3, c3 = parse_group_spec("S3"), parse_group_spec("C3")
        assert trivial_character(c3) != trivial_character(s3)
        assert trivial_character(c3).values == trivial_character(s3).values

    def test_s5_products(self, s5):
        g, table = s5
        assert paper_chi(table, 2, g) * paper_chi(table, 3, g) == paper_chi(table, 4, g)
        assert paper_chi(table, 2, g) * paper_chi(table, 6, g) == paper_chi(table, 7, g)

    def test_difference_undoes_the_sum(self, s5):
        g, table = s5
        a, b = table.rows[1], table.rows[4]
        assert (a + b) - b == a
        assert (a - b) + b == a
        assert (a - a).is_zero() and not (a - b).is_zero()
        with pytest.raises(GroupMismatchError):
            a - trivial_character(parse_group_spec("S4"))

    def test_trivial_is_identity(self, s5):
        g, table = s5
        t = trivial_character(g)
        for row in table.rows:
            assert t * row == row

    def test_conjugate_rows_stay_in_table(self):
        g = parse_group_spec("A4")
        table = build_character_table(g)
        for row in table.rows:
            conj = row.conjugate()
            assert any(conj == other for other in table.rows)

    def test_inverse_class_is_conjugate_value(self):
        for name in ["S4", "A4", "Q8", "A5"]:
            g = parse_group_spec(name)
            table = build_character_table(g)
            data = g.conjugacy_classes()
            for row in table.rows:
                for j in range(len(data)):
                    assert row.values[data.inverse_class[j]] == row.values[j].conj()

    def test_a_float_value_is_refused(self):
        # 0.5 would otherwise enter as its binary fraction
        g = parse_group_spec("S3")
        with pytest.raises(CycloError, match="float 0.5"):
            ClassFunction(g, [1, 0.5, 0])

    def test_magnitude_bounded_by_degree(self, s5):
        _, table = s5
        for row in table.rows:
            top = abs(row.values[0].to_float())
            for v in row.values:
                assert abs(v.to_float()) <= top + 1e-9


class TestSymAltSquare:
    def test_s5_alternating_square(self, s5):
        g, table = s5
        chi3 = paper_chi(table, 3, g)
        _, chi_a = sym_alt_square(chi3)
        expected = {
            "()": ratio(6),
            "(0,1)": ratio(0),
            "(0,1,2)": ratio(0),
            "(0,1)(2,3)": ratio(-2),
            "(0,1,2,3)": ratio(0),
            "(0,1)(2,3,4)": ratio(0),
            "(0,1,2,3,4)": ratio(1),
        }
        for rep, val in expected.items():
            assert chi_a.values[class_index_of(g, rep)] == val

    def test_s5_symmetric_square(self, s5):
        g, table = s5
        chi3 = paper_chi(table, 3, g)
        chi_s, _ = sym_alt_square(chi3)
        expected = {
            "()": ratio(10),
            "(0,1)": ratio(4),
            "(0,1,2)": ratio(1),
            "(0,1)(2,3)": ratio(2),
            "(0,1,2,3)": ratio(0),
            "(0,1)(2,3,4)": ratio(1),
            "(0,1,2,3,4)": ratio(0),
        }
        for rep, val in expected.items():
            assert chi_s.values[class_index_of(g, rep)] == val

    def test_linear_character_has_zero_alt(self):
        g = parse_group_spec("C6")
        table = build_character_table(g)
        for row in table.rows:
            sym, alt = sym_alt_square(row)
            assert alt.is_zero()
            assert sym == row * row

    def test_sum_recovers_square(self):
        rng = random.Random(31)
        for name in ["S4", "Q8", "D5"]:
            g = parse_group_spec(name)
            table = build_character_table(g)
            for _ in range(5):
                chi = ClassFunction(g, [Cyclo.zero()] * len(table.rows))
                for row in table.rows:
                    chi = chi + row.scaled(rng.randrange(0, 3))
                sym, alt = sym_alt_square(chi)
                assert sym + alt == chi * chi

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_squares_from_squared_representatives(self, name):
        # oracle: the class c of g^2 is looked up from rep * rep, not read
        # from the power map
        g = parse_group_spec(name)
        table = build_character_table(g)
        data = g.conjugacy_classes()
        half = Fraction(1, 2)
        for n, chi in zip(table.degrees, table.rows):
            sym, alt = sym_alt_square(chi)
            for j, rep in enumerate(data.representatives):
                c = data.member_index[rep * rep]
                square = chi.values[j] * chi.values[j]
                assert sym.values[j] == half * (square + chi.values[c])
                assert alt.values[j] == half * (square - chi.values[c])
            # both are characters, of degrees n(n+1)/2 and n(n-1)/2
            for f, dim in ((sym, n * (n + 1) // 2), (alt, n * (n - 1) // 2)):
                mults = decompose(f, table)
                assert sum(m * d for m, d in zip(mults, table.degrees)) == dim


class TestIrreducibility:
    def test_alt_square_irreducible(self, s5):
        g, table = s5
        chi3 = paper_chi(table, 3, g)
        _, chi_a = sym_alt_square(chi3)
        assert is_irreducible(chi_a)

    def test_sym_square_not_irreducible(self, s5):
        g, table = s5
        chi3 = paper_chi(table, 3, g)
        chi_s, _ = sym_alt_square(chi3)
        assert not is_irreducible(chi_s)

    def test_regular_not_irreducible(self):
        g = parse_group_spec("S3")
        assert not is_irreducible(regular_character(g))

    def test_linear_twists(self):
        for name in ["S4", "Q8", "D4", "A4", "S5"]:
            g = parse_group_spec(name)
            table = build_character_table(g)
            linears = [r for r in table.rows if r.values[0] == 1]
            for lin in linears:
                for row in table.rows:
                    assert is_irreducible(lin * row)


class TestDecompose:
    def test_sym_square_decomposition(self, s5):
        g, table = s5
        chi3 = paper_chi(table, 3, g)
        chi_s, _ = sym_alt_square(chi3)
        mults = decompose(chi_s, table)
        assert sum(mults) == 3
        assert sum(m * d for m, d in zip(mults, table.degrees)) == 10
        reconstructed = table.rows[0].scaled(0)
        for m, row in zip(mults, table.rows):
            if m:
                reconstructed = reconstructed + row.scaled(m)
        assert reconstructed == chi_s
        # chi_S = chi_1 + chi_3 + chi_6
        assert mults[table.rows.index(paper_chi(table, 1, g))] == 1
        assert mults[table.rows.index(paper_chi(table, 3, g))] == 1
        assert mults[table.rows.index(paper_chi(table, 6, g))] == 1

    def test_conjugates_chi_once(self, monkeypatch):
        # no table value is conjugated, only the h values of chi
        g = parse_group_spec("S6")
        table = build_character_table(g)
        chi = table.rows[2]
        chi_s, _ = sym_alt_square(chi)
        calls = []
        conj = Cyclo.conj

        def counting_conj(self):
            calls.append(self)
            return conj(self)

        monkeypatch.setattr(Cyclo, "conj", counting_conj)
        mults = decompose(chi_s, table)
        assert len(calls) <= len(table.rows)
        n = table.degrees[2]
        assert sum(m * d for m, d in zip(mults, table.degrees)) == n * (n + 1) // 2

    def test_regular_gives_degrees(self):
        g = parse_group_spec("S4")
        table = build_character_table(g)
        assert decompose(regular_character(g), table) == list(table.degrees)

    def test_trivial_row(self):
        g = parse_group_spec("D5")
        table = build_character_table(g)
        mults = decompose(table.rows[0], table)
        assert mults == [1] + [0] * (len(table.rows) - 1)

    def test_rejects_non_character(self):
        # S3's classes are the identity, the 3-cycles and the transpositions;
        # each rejection names the first row's multiplicity, word for word
        g = parse_group_spec("S3")
        table = build_character_table(g)
        cases = [
            ([ratio(1, 2), ratio(0), ratio(0)],
             "not a character: multiplicity 1/12 is not a nonnegative integer"),
            ([ratio(-1), ratio(-1), ratio(-1)],
             "not a character: multiplicity -1 is not a nonnegative integer"),
            ([ratio(1), root_of_unity(3), ratio(0)],
             "multiplicity 1/6 + 1/3*z(3)^1 ~ 0.0000+0.2887i is not rational"),
        ]
        for values, message in cases:
            with pytest.raises(NotACharacterError) as exc:
                decompose(ClassFunction(g, values), table)
            assert str(exc.value) == message


# -- the split forms against the per-term code they replaced -------------------
#
# These are the pairings and the squares as they were computed before the
# split form, one `Cyclo` operation per class: each result of the library
# must be the oracle's, in the same held form (order, nums, den), and each
# rejection must carry the oracle's message.


def per_term_inner_product(f1, f2):
    sizes = f1.group.conjugacy_classes().sizes
    weighted = [r * b.conj() for r, b in zip(sizes, f2.values)]
    return dot(f1.values, weighted) * Fraction(1, f1.group.order)


def per_term_bilinear_form(f1, f2):
    data = f1.group.conjugacy_classes()
    weighted = [r * f2.values[j] for r, j in zip(data.sizes, data.inverse_class)]
    return dot(f1.values, weighted) * Fraction(1, f1.group.order)


def per_term_sym_alt_square(chi):
    data = chi.group.conjugacy_classes()
    half = Fraction(1, 2)
    sym_vals, alt_vals = [], []
    for j, powers in enumerate(data.power_class):
        square_value = chi.values[powers[2 % len(powers)]]
        chi_sq = chi.values[j] * chi.values[j]
        sym_vals.append(half * (chi_sq + square_value))
        alt_vals.append(half * (chi_sq - square_value))
    return sym_vals, alt_vals


def per_term_decompose(chi, table):
    sizes = chi.group.conjugacy_classes().sizes
    weighted = [r * v.conj() for r, v in zip(sizes, chi.values)]
    order = chi.group.order
    mults = []
    for row in table.rows:
        s = dot(row.values, weighted)
        if not s.is_rational():
            m = s * Fraction(1, order)
            raise NotACharacterError(f"multiplicity {m.conj()} is not rational")
        q, rem = divmod(s.nums[0], s.den * order)
        if rem or q < 0:
            raise NotACharacterError(
                "not a character: multiplicity "
                f"{Fraction(s.nums[0], s.den * order)} is not a nonnegative integer"
            )
        mults.append(q)
    return mults


def held(values):
    return [(v.order, v.nums, v.den) for v in values]


def decompose_outcome(decomposer, chi, table):
    """The multiplicities, or the message of the rejection."""
    try:
        return decomposer(chi, table)
    except NotACharacterError as exc:
        return str(exc)


def assert_matches_the_per_term_code(f1, f2, table):
    assert held([inner_product(f1, f2)]) == held([per_term_inner_product(f1, f2)])
    assert held([bilinear_form(f1, f2)]) == held([per_term_bilinear_form(f1, f2)])
    assert held((f1 * f2).values) == held(a * b for a, b in zip(f1.values, f2.values))
    sym, alt = sym_alt_square(f1)
    assert [held(sym.values), held(alt.values)] == list(map(held, per_term_sym_alt_square(f1)))
    for chi in (f1, f1 * f2, sym, alt):
        assert (decompose_outcome(decompose, chi, table)
                == decompose_outcome(per_term_decompose, chi, table))


# rational and irrational tables: S4 and S5 hold only ints, A4 holds values
# in Q(zeta_3) and A5 in Q(zeta_5)
SPLIT_TABLES = ["S4", "A4", "A5", "S5"]


@functools.lru_cache(maxsize=None)
def split_table(name):
    return build_character_table(parse_group_spec(name))


@pytest.mark.parametrize("name", SPLIT_TABLES)
def test_row_pairings_match_the_per_term_code(name):
    table = split_table(name)
    for f1 in table.rows:
        for f2 in table.rows:
            assert_matches_the_per_term_code(f1, f2, table)


@st.composite
def class_functions(draw, table):
    """A class function on the table's group: a character (a nonnegative
    combination of the rows), a character with one value changed, or any
    values, each an int (zero included), a Fraction or an irrational value."""
    h = len(table.rows)
    values = st.one_of(
        st.integers(min_value=-6, max_value=6).map(from_rational),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).map(from_rational),
        st.tuples(st.sampled_from([3, 4, 5, 12]), st.integers(min_value=0, max_value=11),
                  st.integers(min_value=-2, max_value=2))
        .map(lambda t: t[2] * root_of_unity(t[0], t[1]) + 1),
    )
    kind = draw(st.sampled_from(["character", "changed", "values"]))
    if kind == "values":
        return ClassFunction(table.group, [draw(values) for _ in range(h)])
    chi = ClassFunction(table.group, [0] * h)
    for row in table.rows:
        chi = chi + row.scaled(draw(st.integers(min_value=0, max_value=2)))
    if kind == "changed":
        vals = list(chi.values)
        vals[draw(st.integers(min_value=0, max_value=h - 1))] = draw(values)
        chi = ClassFunction(table.group, vals)
    return chi


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SPLIT_TABLES).flatmap(
    lambda name: st.tuples(st.just(name), class_functions(split_table(name)),
                           class_functions(split_table(name)))))
def test_class_functions_match_the_per_term_code(case):
    name, f1, f2 = case
    assert_matches_the_per_term_code(f1, f2, split_table(name))


def test_sym_alt_halves_an_odd_int_exactly():
    # on S3 (identity, 3-cycles, transpositions) f = (1, 0, 0) has f(t) = 0
    # and f(t^2) = 1 at a transposition t, so both squares are -+1/2 there
    g = parse_group_spec("S3")
    f = ClassFunction(g, [1, 0, 0])
    sym, alt = sym_alt_square(f)
    assert held(sym.values) == held([ratio(1), ratio(0), ratio(1, 2)])
    assert held(alt.values) == held([ratio(0), ratio(0), ratio(-1, 2)])
    assert [held(sym.values), held(alt.values)] == list(map(held, per_term_sym_alt_square(f)))


def test_decompose_rejections_on_an_irrational_table_are_pinned():
    # A4's classes: the identity, the double transpositions and the two
    # classes of 3-cycles, where two rows take the values zeta_3^(+-1)
    g = parse_group_spec("A4")
    table = build_character_table(g)
    cases = [
        ([ratio(1, 2), ratio(0), ratio(0), ratio(0)],
         "not a character: multiplicity 1/24 is not a nonnegative integer"),
        ([ratio(-1), ratio(-1), ratio(-1), ratio(-1)],
         "not a character: multiplicity -1 is not a nonnegative integer"),
        ([ratio(1), ratio(0), root_of_unity(3), ratio(0)],
         "multiplicity 1/12 + 1/3*z(3)^1 ~ -0.0833+0.2887i is not rational"),
    ]
    for values, message in cases:
        chi = ClassFunction(g, values)
        for decomposer in (decompose, per_term_decompose):
            with pytest.raises(NotACharacterError) as exc:
                decomposer(chi, table)
            assert str(exc.value) == message


def test_arithmetic_makes_no_checked_class_function(monkeypatch):
    # the sums, differences, products, conjugates, multiples, squares and
    # restrictions of class functions hold `Cyclo` values already, so none
    # goes through the coercing, length-checking constructor
    from chartab.analysis import restrict

    g = parse_group_spec("S5")
    table = build_character_table(g)
    h = g.subgroup(list(parse_group_spec("A5").generators))
    a, b = table.rows[3], table.rows[5]
    expected = [(a + b).values, (a - b).values, (a * b).values, a.conjugate().values,
                a.scaled(3).values, sym_alt_square(a)[0].values, restrict(a, h).values]

    def refused(self, group, values):
        raise AssertionError("a checked class function was made")

    monkeypatch.setattr(ClassFunction, "__init__", refused)
    got = [(a + b).values, (a - b).values, (a * b).values, a.conjugate().values,
           a.scaled(3).values, sym_alt_square(a)[0].values, restrict(a, h).values]
    assert list(map(held, got)) == list(map(held, expected))
    assert all(type(v) is Cyclo for values in got for v in values)


class TestRegularCharacter:
    def test_s3(self):
        g = parse_group_spec("S3")
        reg = regular_character(g)
        assert reg.values[0] == 6
        assert all(v.is_zero() for v in reg.values[1:])

    def test_trivial_group(self):
        g = parse_group_spec("C1")
        assert regular_character(g).values[0] == 1

    def test_q8(self):
        reg = regular_character(parse_group_spec("Q8"))
        assert reg.values[0] == 8
        assert all(v.is_zero() for v in reg.values[1:])


class TestFourier:
    def test_constant_transforms_to_delta(self):
        f = [from_rational(1)] * 4
        fhat = dft_cyclic(f, 4)
        assert fhat[0] == 1
        assert all(v.is_zero() for v in fhat[1:])

    def test_delta_transforms_to_constant(self):
        f = [from_rational(1), from_rational(0), from_rational(0)]
        fhat = dft_cyclic(f, 3)
        assert all(v == Fraction(1, 3) for v in fhat)

    def test_inversion_and_plancherel_random(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randrange(1, 13)
            f = [
                from_rational(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
                for _ in range(n)
            ]
            fhat = dft_cyclic(f, n)
            assert inverse_dft_cyclic(fhat, n) == f
            lhs, rhs = plancherel_check(f, n)
            assert lhs == rhs

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dft_cyclic([from_rational(1)], 2)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("fn", [dft_cyclic, inverse_dft_cyclic, plancherel_check])
    def test_a_modulus_below_one_is_refused(self, fn, n):
        with pytest.raises(ValueError, match=f"modulus n must be at least 1, got {n}"):
            fn([], n)

    # the transform against its definition, one Cyclo product per term
    @staticmethod
    def naive_dft(f, n):
        return [dot(f, [root_of_unity(n, -k * q) for k in range(n)]) * Fraction(1, n)
                for q in range(n)]

    @staticmethod
    def naive_inverse(fhat, n):
        return [dot(fhat, [root_of_unity(n, k * q) for q in range(n)]) for k in range(n)]

    @staticmethod
    def random_value(rng, d):
        """A value of Q(zeta_d), often sparse, with some non-integral coefficients."""
        total = Cyclo.zero()
        for k in rng.sample(range(d), rng.randrange(1, d + 1)):
            total += root_of_unity(d, k) * Fraction(rng.randrange(-5, 6), rng.choice([1, 1, 2, 3]))
        return total

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rational_input_matches_the_definition(self, n):
        # rational input: each value is held where the definition holds it,
        # at order n, or 1 when rational, with the same coefficients
        rng = random.Random(n)
        for _ in range(4):
            f = [from_rational(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
                 if rng.random() < 0.7 else Cyclo.zero() for _ in range(n)]
            for got, want in ((dft_cyclic(f, n), self.naive_dft(f, n)),
                              (inverse_dft_cyclic(f, n), self.naive_inverse(f, n))):
                assert [(v.order, v.coeffs) for v in got] == [(v.order, v.coeffs) for v in want]

    @pytest.mark.parametrize("n, d", [
        (4, 4), (6, 3), (8, 4), (8, 8), (9, 3), (12, 3), (12, 4), (12, 6), (12, 12),
        (4, 5), (3, 4), (6, 4), (5, 7), (1, 5),  # d does not divide n
    ])
    def test_irrational_input_matches_the_definition(self, n, d):
        rng = random.Random(100 * n + d)
        big = math.lcm(n, d)
        for _ in range(3):
            f = [self.random_value(rng, d) if rng.random() < 0.6 else from_rational(rng.randrange(-3, 4))
                 for _ in range(n)]
            fhat = dft_cyclic(f, n)
            assert fhat == self.naive_dft(f, n)
            back = inverse_dft_cyclic(fhat, n)
            assert back == self.naive_inverse(fhat, n)
            assert back == f
            # an irrational value is held at order lcm(n, d)
            assert all(v.order in (1, big) for v in fhat + back)
            assert all(v.order == 1 for v in fhat + back if v.is_rational())
