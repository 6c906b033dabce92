import json
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartab import _modp as mp
from chartab.classfun import inner_product, is_irreducible
from chartab.cyclo import Cyclo, root_of_unity
from chartab.permgroup import Perm, parse_group_spec
from chartab.tablegen import (
    SPLIT_SEED,
    TableConstructionError,
    _split_space,
    build_character_table,
    choose_prime,
    class_constants,
    degrees_from_eigen,
    linear_characters,
    modp_eigenbasis,
)

from conftest import (
    A4_COLUMNS,
    A4_ROWS,
    A5_COLUMNS,
    A5_ROWS,
    BUILTINS_LE_24,
    S4_COLUMNS,
    S4_ROWS,
    S5_COLUMNS,
    S5_ROWS,
    expected_row_set,
    rows_match_as_sets,
)


D4_X_D4 = "perm:8:(0,1,2,3);(0,2);(4,5,6,7);(4,6)"
D4_X_S3 = "perm:7:(0,1,2,3);(0,2);(4,5);(4,5,6)"


def brute_force_constants(g):
    """Triple-loop oracle: a_jkl = #{(x, y) in C_j x C_k : x y = g_l}."""
    data = g.conjugacy_classes()
    h = len(data)
    a = [[[0] * h for _ in range(h)] for _ in range(h)]
    for j in range(h):
        for k in range(h):
            for x, y in iproduct(data.classes[j].members, data.classes[k].members):
                prod = x * y
                for l in range(h):
                    if prod == data.classes[l].representative:
                        a[j][k][l] += 1
    return a


class TestClassConstants:
    def test_s3_oracle(self):
        g = parse_group_spec("S3")
        cc = class_constants(g)
        assert cc.a == brute_force_constants(g)
        # transpositions are class 2 in canonical order (size 3); their
        # square decomposes over identity and 3-cycles with coefficient 3
        assert cc.a[2][2][0] == 3
        assert cc.a[2][2][1] == 3
        assert cc.a[2][2][2] == 0

    @pytest.mark.parametrize("name", ["Q8", "A4", "D4", "C6", "S4"])
    def test_brute_force_oracle(self, name):
        g = parse_group_spec(name)
        assert class_constants(g).a == brute_force_constants(g)

    @pytest.mark.parametrize("name", BUILTINS_LE_24)
    def test_identity_class_is_neutral(self, name):
        cc = class_constants(parse_group_spec(name))
        for k in range(cc.h):
            for l in range(cc.h):
                assert cc.a[0][k][l] == (1 if k == l else 0)

    @pytest.mark.parametrize("name", BUILTINS_LE_24)
    def test_counting_identity_and_symmetry(self, name):
        cc = class_constants(parse_group_spec(name))
        for j in range(cc.h):
            for k in range(cc.h):
                total = sum(cc.a[j][k][l] * cc.sizes[l] for l in range(cc.h))
                assert total == cc.sizes[j] * cc.sizes[k]
                for l in range(cc.h):
                    assert cc.a[j][k][l] == cc.a[k][j][l]

    def test_c4_singleton_products(self):
        g = parse_group_spec("C4")
        cc = class_constants(g)
        data = g.conjugacy_classes()
        for j in range(4):
            for k in range(4):
                prod = data.classes[j].representative * data.classes[k].representative
                target = data.member_index[prod]
                for l in range(4):
                    assert cc.a[j][k][l] == (1 if l == target else 0)


class TestChoosePrime:
    def test_s3(self):
        assert choose_prime(parse_group_spec("S3")) == 7

    def test_s5(self):
        assert choose_prime(parse_group_spec("S5")) == 61

    def test_trivial(self):
        assert choose_prime(parse_group_spec("C1")) == 3

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["S5", "A5"])
    def test_prime_properties(self, name):
        g = parse_group_spec(name)
        p = choose_prime(g)
        assert mp.is_prime(p)
        assert p % g.exponent == 1 % g.exponent
        assert p * p > 4 * g.order


class TestEigenbasis:
    def test_c2(self):
        g = parse_group_spec("C2")
        p = choose_prime(g)
        assert p == 3
        vectors = modp_eigenbasis(class_constants(g), p)
        assert sorted(tuple(v) for v in vectors) == [(1, 1), (1, 2)]

    @pytest.mark.parametrize("name", [
        "S3", "C6", "Q8", "S4", "A5",
        D4_X_D4,  # h = 25 over p = 17: the small field makes redraws likely
        D4_X_S3,
    ])
    def test_simultaneous_eigenvectors(self, name):
        # independent check of the defining property M_j v = v[j] v
        g = parse_group_spec(name)
        cc = class_constants(g)
        p = choose_prime(g)
        vectors = modp_eigenbasis(cc, p)
        assert len(vectors) == cc.h
        for v in vectors:
            assert v[0] == 1
            for j in range(cc.h):
                mat = cc.a[j]
                image = [
                    sum(mat[k][l] * v[l] for l in range(cc.h)) % p
                    for k in range(cc.h)
                ]
                assert image == [v[j] * v[k] % p for k in range(cc.h)]

    def test_abelian_vectors_are_characters(self):
        # for singleton classes the eigenvector coordinates multiply like
        # the underlying elements
        g = parse_group_spec("C6")
        cc = class_constants(g)
        p = choose_prime(g)
        data = g.conjugacy_classes()
        for v in modp_eigenbasis(cc, p):
            for j in range(cc.h):
                for k in range(cc.h):
                    l = data.member_index[
                        data.classes[j].representative
                        * data.classes[k].representative
                    ]
                    assert v[j] * v[k] % p == v[l]

    def test_prime_dividing_the_order_fails_loudly(self):
        # 3 divides |S3| = 6: the class matrix of the 3-cycles has a single
        # eigenvalue mod 3 but is not scalar, so no split can succeed
        cc = class_constants(parse_group_spec("S3"))
        with pytest.raises(TableConstructionError, match="F_3"):
            modp_eigenbasis(cc, 3)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@st.composite
def diagonalized(draw):
    """(p, A, diag, P^-1, v) with A = P^-1 D P over F_p, D the diagonal
    matrix of diag and P invertible."""
    p = draw(st.sampled_from([13, 17, 37]))
    n = draw(st.integers(min_value=1, max_value=6))
    diag = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    # P = L U, L unit lower triangular, U upper triangular with a nonzero
    # diagonal, so P is invertible
    lower = [[1 if i == j else (draw(st.integers(0, p - 1)) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[draw(st.integers(1, p - 1)) if i == j else
              (draw(st.integers(0, p - 1)) if j > i else 0)
              for j in range(n)] for i in range(n)]
    P = mp.mat_mul(lower, upper, p)
    reduced, _ = mp.rref([row + unit for row, unit in zip(P, mp.identity(n))], p)
    P_inv = [row[n:] for row in reduced]
    D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    A = mp.mat_mul(mp.mat_mul(P_inv, D, p), P, p)
    v = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return p, A, diag, P_inv, v


class TestMinimalPolynomial:
    @settings(max_examples=80, deadline=None)
    @given(diagonalized())
    def test_annihilator_of_one_vector(self, case):
        p, A, diag, P_inv, v = case
        f = mp.minimal_polynomial(A, v, p)
        assert f[-1] == 1
        # v f(A) = 0, evaluated by Horner on the row vector
        acc = [0] * len(v)
        for c in reversed(f):
            acc = mp.mat_mul([acc], A, p)[0]
            acc = [(x + c * y) % p for x, y in zip(acc, v)]
        assert not any(acc)
        # in eigen-coordinates w = v P^-1 (rows of P are eigenvectors), f is
        # the product of (x - lam) over the eigenvalues where w is nonzero
        w = mp.mat_mul([v], P_inv, p)[0]
        present = sorted({lam for lam, wi in zip(diag, w) if wi})
        expected = [1]
        for lam in present:
            expected = _poly_mul(expected, [-lam % p, 1], p)
        assert f == expected
        if all(w):
            assert len(f) == len(set(diag)) + 1


class ScriptedRandom(random.Random):
    """The SPLIT_SEED stream with its first randrange results scripted;
    counts every draw."""

    def __init__(self, script=()):
        super().__init__(SPLIT_SEED)
        self.script = list(script)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        if self.script:
            return self.script.pop(0)
        return super().randrange(*args)


class TestSplitSpace:
    @pytest.mark.parametrize("p, mat", [
        (13, [[5, 1], [0, 5]]),
        (17, [[3, 1, 0], [0, 3, 0], [0, 0, 9]]),
    ])
    def test_jordan_block_fails_on_first_draw(self, p, mat):
        d = len(mat)
        rows, pivots = mp.rref(mp.identity(d), p)
        rng = ScriptedRandom([1] * d)
        with pytest.raises(TableConstructionError, match=rf"F_{p}.*dimension {d}"):
            _split_space(rows, pivots, mat, p, rng)
        assert rng.draws == d

    @pytest.mark.parametrize("name, j", [("S3", 2), ("S4", 3), ("A5", 4)])
    def test_eigenvector_draw_is_redrawn(self, name, j):
        # the first draw is a simultaneous eigenvector, so its annihilator
        # has one root although class matrix j is not scalar
        g = parse_group_spec(name)
        cc = class_constants(g)
        p = choose_prime(g)
        eigvecs = modp_eigenbasis(cc, p)
        mat = cc.a[j]
        assert len({v[j] for v in eigvecs}) > 1
        rows, pivots = mp.rref(mp.identity(cc.h), p)
        rng = ScriptedRandom(eigvecs[-1])
        spaces = _split_space(rows, pivots, mat, p, rng)
        assert rng.draws > cc.h
        assert sum(len(r) for r, _ in spaces) == cc.h
        assert len(spaces) == len({v[j] for v in eigvecs})
        for sub, _ in spaces:
            # every space is the span of the eigenvectors of one eigenvalue
            members = [v for v in eigvecs
                       if len(mp.rref(sub + [v], p)[0]) == len(sub)]
            assert len(members) == len(sub)
            assert len({v[j] for v in members}) == 1


class TestDegrees:
    def test_s5_multiset(self):
        g = parse_group_spec("S5")
        cc = class_constants(g)
        p = choose_prime(g)
        vectors = modp_eigenbasis(cc, p)
        degrees = degrees_from_eigen(vectors, cc, p, g.order)
        assert sorted(degrees) == [1, 1, 4, 4, 5, 5, 6]

    def test_q8(self):
        g = parse_group_spec("Q8")
        cc = class_constants(g)
        p = choose_prime(g)
        degrees = degrees_from_eigen(modp_eigenbasis(cc, p), cc, p, g.order)
        assert sorted(degrees) == [1, 1, 1, 1, 2]

    def test_trivial(self):
        g = parse_group_spec("C1")
        cc = class_constants(g)
        p = choose_prime(g)
        assert degrees_from_eigen(modp_eigenbasis(cc, p), cc, p, 1) == [1]


class TestGoldenTables:
    def test_s3(self):
        table = build_character_table(parse_group_spec("S3"))
        values = [tuple(v.exact_str() for v in row.values) for row in table.rows]
        assert values == [
            ("1", "1", "1"),
            ("1", "1", "-1"),
            ("2", "-1", "0"),
        ]

    def test_s4(self):
        g = parse_group_spec("S4")
        table = build_character_table(g)
        assert rows_match_as_sets(table, expected_row_set(g, S4_COLUMNS, S4_ROWS))

    def test_s5(self, s5_group, s5_table):
        assert rows_match_as_sets(
            s5_table, expected_row_set(s5_group, S5_COLUMNS, S5_ROWS)
        )

    def test_a4_omega_entries(self):
        g = parse_group_spec("A4")
        table = build_character_table(g)
        assert rows_match_as_sets(table, expected_row_set(g, A4_COLUMNS, A4_ROWS))

    def test_a5_surds(self):
        g = parse_group_spec("A5")
        table = build_character_table(g)
        assert rows_match_as_sets(table, expected_row_set(g, A5_COLUMNS, A5_ROWS))

    def test_d4_matches_q8(self):
        d4 = build_character_table(parse_group_spec("D4"))
        q8 = build_character_table(parse_group_spec("Q8"))
        assert d4.same_abstract_table(q8)
        assert q8.same_abstract_table(d4)
        assert not d4.same_abstract_table(
            build_character_table(parse_group_spec("C8"))
        )

    def test_cyclic_powers(self):
        # chi_r(g^s) = zeta_n^(r s); compare as row sets against all r
        for n in [2, 3, 5, 7]:
            g = parse_group_spec(f"C{n}")
            table = build_character_table(g)
            data = g.conjugacy_classes()
            gen = parse_group_spec(f"C{n}").generators[0]
            logs = []
            for cl in data.classes:
                power, s = gen ** 0, 0
                while power != cl.representative:
                    power, s = power * gen, s + 1
                logs.append(s)
            expected = [
                tuple(root_of_unity(n, r * s) for s in logs) for r in range(n)
            ]
            assert rows_match_as_sets(table, expected)

    def test_trivial_table(self):
        table = build_character_table(parse_group_spec("C1"))
        assert len(table.rows) == 1
        assert table.rows[0].values[0] == 1


def relabeled_spec(g, seed):
    """`perm:` spec of g with its points renamed by a seeded shuffle."""
    images = list(range(g.degree))
    random.Random(seed).shuffle(images)
    sigma = Perm(images)
    gens = [(sigma * x * sigma.inv()).cycle_string() for x in g.generators]
    return f"perm:{g.degree}:" + ";".join(gens)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["S4", D4_X_S3, "Q8"]), st.integers(0, 2**32 - 1))
def test_relabeling_keeps_the_table(name, seed):
    # the split path follows labels (class order, pivots), its result must not
    g = parse_group_spec(name)
    relabeled = parse_group_spec(relabeled_spec(g, seed))
    assert relabeled.order == g.order
    table = build_character_table(relabeled)
    assert table.same_abstract_table(build_character_table(g))


class TestTableInvariants:
    @pytest.mark.parametrize("name", BUILTINS_LE_24)
    def test_square_and_irreducible(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        assert len(table.rows) == len(g.conjugacy_classes())
        for row in table.rows:
            assert is_irreducible(row)

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_row_orthonormality(self, name):
        table = build_character_table(parse_group_spec(name))
        for i, r1 in enumerate(table.rows):
            for j, r2 in enumerate(table.rows):
                assert inner_product(r1, r2) == (1 if i == j else 0)

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_column_relations(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        data = g.conjugacy_classes()
        h = len(data)
        for l in range(h):
            acc = Cyclo.zero()
            for row in table.rows:
                acc = acc + row.values[l] * row.values[l].conj()
            assert acc == Fraction(g.order, data.sizes[l])
            for m in range(l + 1, h):
                cross = Cyclo.zero()
                for row in table.rows:
                    cross = cross + row.values[l] * row.values[m].conj()
                assert cross.is_zero()

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_weighted_degree_sums(self, name):
        table = build_character_table(parse_group_spec(name))
        h = len(table.rows)
        for l in range(1, h):
            acc = Cyclo.zero()
            for d, row in zip(table.degrees, table.rows):
                acc = acc + d * row.values[l]
            assert acc.is_zero()

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_degree_facts(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        assert sum(d * d for d in table.degrees) == g.order
        assert all(g.order % d == 0 for d in table.degrees)
        derived = g.commutator_subgroup()
        assert sum(1 for d in table.degrees if d == 1) == g.order // derived.order

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_columns_distinct(self, name):
        table = build_character_table(parse_group_spec(name))
        h = len(table.rows)
        cols = [tuple(row.values[l] for row in table.rows) for l in range(h)]
        for a in range(h):
            for b in range(a + 1, h):
                assert any(x != y for x, y in zip(cols[a], cols[b]))

    @pytest.mark.parametrize("name", ["S3", "S4", "S5", "A5"])
    def test_self_inverse_classes_real(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        data = g.conjugacy_classes()
        for j in range(len(data)):
            if data.inverse_class[j] == j:
                for row in table.rows:
                    assert row.values[j] == row.values[j].conj()

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_central_character_identity(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        cc = class_constants(g)
        h = cc.h
        for i, row in enumerate(table.rows):
            lam = [
                Fraction(cc.sizes[j], table.degrees[i]) * row.values[j]
                for j in range(h)
            ]
            for j in range(h):
                for k in range(h):
                    rhs = Cyclo.zero()
                    for l in range(h):
                        if cc.a[j][k][l]:
                            rhs = rhs + cc.a[j][k][l] * lam[l]
                    assert lam[j] * lam[k] == rhs

    def test_first_row_trivial_and_degrees_sorted(self):
        for name in ["S4", "Q8", "D6", "A5"]:
            table = build_character_table(parse_group_spec(name))
            assert all(v == 1 for v in table.rows[0].values)
            assert list(table.degrees) == sorted(table.degrees)


class TestLinearCharacters:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_groups_have_two(self, n):
        assert len(linear_characters(parse_group_spec(f"S{n}"))) == 2

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cyclic_groups_have_n(self, n):
        chars = linear_characters(parse_group_spec(f"C{n}"))
        assert len(chars) == n

    def test_q8_kernel_contains_center(self):
        g = parse_group_spec("Q8")
        chars = linear_characters(g)
        assert len(chars) == 4
        data = g.conjugacy_classes()
        # class 1 is the central class of the unique order-2 element
        assert data.classes[1].size == 1
        for chi in chars:
            assert chi.values[1] == 1

    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5"])
    def test_matches_table_rows(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        chars = linear_characters(g)
        table_linear = [r for r in table.rows if r.values[0] == 1]
        assert len(chars) == len(table_linear)
        for chi in chars:
            assert any(chi == row for row in table_linear)

    def test_distinct_and_closed_under_product(self):
        g = parse_group_spec("D6")
        chars = linear_characters(g)
        for i, c1 in enumerate(chars):
            for j, c2 in enumerate(chars):
                if i != j:
                    assert c1 != c2
                prod = c1 * c2
                assert any(prod == c for c in chars)


NATURAL_FIELD_NAMES = BUILTINS_LE_24 + ["S5", "A5", "A6"]


@pytest.mark.parametrize("name", NATURAL_FIELD_NAMES)
def test_values_in_natural_field(name):
    # chi(g) lies in Q(zeta_d) for d the order of g; a rational value is in Q.
    # That holds for the lifted rows and for the linear characters of G/G'
    g = parse_group_spec(name)
    rows = build_character_table(g).rows + linear_characters(g)
    for j, cl in enumerate(g.conjugacy_classes().classes):
        for row in rows:
            value = row.values[j]
            assert cl.element_order % value.order == 0
            assert (value.order == 1) == value.is_rational()
            # character values are algebraic integers
            assert all(type(c) is int for c in value.coeffs)


class TestDeterminism:
    @pytest.mark.parametrize("name", NATURAL_FIELD_NAMES)
    def test_fresh_builds_are_byte_identical(self, name):
        # two independent group objects, so nothing cached is shared
        from chartab.permgroup import PermGroup

        g1 = parse_group_spec(name)
        g2 = PermGroup(g1.degree, g1.generators, cap=g1.cap, spec=g1.spec)
        first = json.dumps(build_character_table(g1).to_json(), indent=2)
        second = json.dumps(build_character_table(g2).to_json(), indent=2)
        assert first == second
