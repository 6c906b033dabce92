import math
import random
from fractions import Fraction
from itertools import combinations, product as iproduct
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartab import _modp as mp
from chartab.classfun import ClassFunction, inner_product, is_irreducible
from chartab.cyclo import Cyclo, root_of_unity
from chartab import cyclo, tablegen
from chartab.cli import _render_table_json
from chartab.permgroup import GroupMismatchError, Perm, PermGroup, parse_group_spec
from chartab.tablegen import (
    CharacterTable,
    TableConstructionError,
    _acts_as_scalar,
    _split_space,
    build_character_table,
    choose_prime,
    class_constants,
    degrees_from_eigen,
    lift_characters,
    linear_characters,
    modp_eigenbasis,
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
    assert_value_index,
    count_perm_products,
    documented_row_key,
    expected_row_set,
    rows_match_as_sets,
    same_abstract_table,
)


D4_X_D4 = "perm:8:(0,1,2,3);(0,2);(4,5,6,7);(4,6)"
D4_X_S3 = "perm:7:(0,1,2,3);(0,2);(4,5);(4,5,6)"
C2_4 = "perm:8:(0,1);(2,3);(4,5);(6,7)"
C2_8 = "perm:16:(0,1);(2,3);(4,5);(6,7);(8,9);(10,11);(12,13);(14,15)"
D4_CUBED = "perm:12:(0,1,2,3);(0,2);(4,5,6,7);(4,6);(8,9,10,11);(8,10)"
# three of the direct products whose tables the benchmark builds
Q8_X_S3_X_C2 = "perm:13:(0,1,2,3)(4,5,6,7);(0,4,2,6)(1,7,3,5);(8,9);(8,9,10);(11,12)"
S3_X_S3_X_C3 = "perm:9:(0,1);(0,1,2);(3,4);(3,4,5);(6,7,8)"
D4_X_C2_X_C2_X_C2 = "perm:10:(0,1,2,3);(0,2);(4,5);(6,7);(8,9)"
# a relabeled D4xD4xC3 (h = 75), the largest table the benchmark builds
D4_X_D4_X_C3 = "perm:11:(1,10,3,9);(9,10);(0,8,4,7);(0,4);(2,5,6)"
C24 = "perm:24:(" + ",".join(map(str, range(24))) + ")"


def brute_force_constants(g):
    """Triple-loop oracle: a_jkl = #{(x, y) in C_j x C_k : x y = g_l}."""
    data = g.conjugacy_classes()
    h = len(data)
    a = [[[0] * h for _ in range(h)] for _ in range(h)]
    for j in range(h):
        for k in range(h):
            for x, y in iproduct(data.members[j], data.members[k]):
                prod = x * y
                for l in range(h):
                    if prod == data.representatives[l]:
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

    # check_all trusts a_jkl = a_kjl and does not compare them
    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["S5", D4_X_S3])
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
                prod = data.representatives[j] * data.representatives[k]
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


# the classes whose matrices the split reads, in order, and the table's
# split classes: in index order, each class whose column splits lines that
# agree on every class before it
SPLIT_READS = [
    # 255 class matrices, and every row linear: the split reads none, and
    # the 8 classes of a basis of C2^8 separate the lines
    (C2_8, [], [1, 2, 4, 8, 16, 32, 64, 128]),
    ("A6", [1, 4], [1, 4]),
    ("A7", [1, 5], [1, 5]),
    ("A8", [1, 2, 7, 11], [1, 2, 7, 11]),
    (D4_CUBED, [1, 2, 4, 8, 9, 10, 12, 16, 20], [1, 2, 4, 8, 9, 10, 12, 16, 20]),
    (D4_X_D4_X_C3, [1, 2, 4, 12, 13, 15, 18], [1, 2, 4, 12, 13, 15, 18]),
    # 3 matrices split the 8 nonlinear lines; 3 more classes separate the
    # 32 linear ones
    (D4_X_C2_X_C2_X_C2, [1, 2, 4], [1, 2, 4, 8, 16, 24]),
    # class 2 splits lines that agree on class 1, though the split reads
    # no matrix there
    ("D8", [1, 3], [1, 2, 3, 5]),
]


class TestEigenbasis:
    def test_c2(self):
        g = parse_group_spec("C2")
        p = choose_prime(g)
        assert p == 3
        vectors, _ = modp_eigenbasis(g, p)
        assert sorted(tuple(v) for v in vectors) == [(1, 1), (1, 2)]

    @pytest.mark.parametrize("name", [
        "S3", "C6", "Q8", "S4", "A5",
        D4_X_D4,  # h = 25 over p = 17
        D4_X_S3,
        # the split skips class matrices that act as scalars on every space
        "A6", "A7", "A8",
    ])
    def test_simultaneous_eigenvectors(self, name):
        # independent check of the defining property M_j v = v[j] v
        g = parse_group_spec(name)
        cc = class_constants(g)
        p = choose_prime(g)
        vectors, _ = modp_eigenbasis(g, p)
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
        for v in modp_eigenbasis(g, p)[0]:
            for j in range(cc.h):
                for k in range(cc.h):
                    l = data.member_index[data.representatives[j] * data.representatives[k]]
                    assert v[j] * v[k] % p == v[l]

    def test_split_computes_only_the_matrices_it_reads(self, monkeypatch):
        # S8 (h = 22) is split into lines by M_1 and M_2; no other class
        # matrix is computed
        read = []
        real = tablegen.class_matrix

        def spy(data, j):
            read.append(j)
            return real(data, j)

        monkeypatch.setattr(tablegen, "class_matrix", spy)
        g = parse_group_spec("S8")
        _, matrices = modp_eigenbasis(g, choose_prime(g))
        assert read == list(matrices) == [1, 2]
        assert all(matrices[j] == real(g.conjugacy_classes(), j) for j in read)

    @pytest.mark.parametrize("spec, reads, split", SPLIT_READS,
                             ids=[f"{spec}-{len(split)}" for spec, _, split in SPLIT_READS])
    def test_split_skips_covered_class_matrices(self, monkeypatch, spec, reads, split):
        # a class matrix is computed only when it is not a scalar on some
        # space of dimension > 1, which the spaces show: column j of the
        # basis is not a multiple of column 0.  The classes read, in order,
        # and the split classes are pinned, so that a change in how that
        # test is made reads the same matrices.  Every class read is a split
        # class: the lines of a space held at class j agree on every class
        # before it, and M_j is read only when two of them differ at j
        read = []
        real = tablegen.class_matrix

        def spy(data, j):
            read.append(j)
            return real(data, j)

        monkeypatch.setattr(tablegen, "class_matrix", spy)
        g = parse_group_spec(spec)
        table = build_character_table(g)
        assert read == reads
        assert table.split_classes == tuple(split)
        assert set(reads) <= set(split)

    @pytest.mark.parametrize("spec", [spec for spec, _, _ in SPLIT_READS] + ["S5", D4_X_S3])
    def test_split_classes_do_not_depend_on_the_classes_read(self, monkeypatch, spec):
        # the split classes are read off the lines, which are the same
        # whichever matrices split them: a split made to read every class
        # matrix until each space is a line gives the same classes
        g = parse_group_spec(spec)
        split = build_character_table(g).split_classes
        read = []
        real = tablegen.class_matrix

        def spy(data, j):
            read.append(j)
            return real(data, j)

        monkeypatch.setattr(tablegen, "class_matrix", spy)
        monkeypatch.setattr(tablegen, "_acts_as_scalar", lambda rows, j, p: False)
        lines, _ = modp_eigenbasis(g, choose_prime(g))
        assert tablegen.split_classes(lines) == split
        assert read == list(range(1, len(read) + 1))

    @pytest.mark.parametrize("name", ["A6", "A7", "A8"])
    def test_every_split_refines_its_space(self, monkeypatch, name):
        # the split is given only spaces on which the matrix is not a
        # scalar, so each call returns at least two eigenspaces
        calls = []
        real = tablegen._split_space

        def spy(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(tablegen, "_split_space", spy)
        g = parse_group_spec(name)
        modp_eigenbasis(g, choose_prime(g))
        assert calls
        assert all(len(spaces) > 1 for spaces in calls)

    @pytest.mark.parametrize("name, j", [("S4", 4), ("A5", 4), ("S5", 2)])
    def test_scalar_is_read_off_the_columns(self, name, j):
        # M_j acts on a span of eigenvectors as a scalar exactly when they
        # share their j-th coordinate; a first row that agrees with the
        # scalar does not make it so, and a space that is zero at the
        # identity class counts as not scalar
        g = parse_group_spec(name)
        p = choose_prime(g)
        eigvecs, _ = modp_eigenbasis(g, p)
        column = [v[j] for v in eigvecs]
        lam = max(column, key=column.count)
        same = [v for v in eigvecs if v[j] == lam]
        other = next(v for v in eigvecs if v[j] != lam)
        assert len(same) > 1
        assert _acts_as_scalar(rref(same, p)[0], j, p)
        assert not _acts_as_scalar([same[0], other], j, p)
        assert not _acts_as_scalar([[0] + v[1:] for v in same], j, p)

    def test_prime_dividing_the_order_fails_loudly(self, monkeypatch):
        # 5 divides |A5| = 60, which is perfect, so the split starts from
        # the whole space; the class matrix it reads has too few
        # eigenvalues mod 5, and no split can succeed
        with pytest.raises(TableConstructionError, match="F_5"):
            modp_eigenbasis(parse_group_spec("A5"), 5)
        # 3 divides |S3| = 6: the linear lines leave one line, the degree-2
        # central character, which needs no split; but |G| / n^2 = 6 / 4 is
        # 0 mod 3, so the degree stage cannot read it
        monkeypatch.setattr(tablegen, "choose_prime", lambda g: 3)
        with pytest.raises(TableConstructionError, match="degenerate orthogonality sum"):
            build_character_table(parse_group_spec("S3"))

    @pytest.mark.parametrize("name, q", [("A4", 3), ("C6", 6)])
    def test_prime_without_an_element_of_order_q_fails_loudly(self, monkeypatch, name, q):
        # the linear lines are seeded with an element of order q =
        # exp(G/G') in F_p; q does not divide 5 - 1, so the split names p and
        # q, and so does the build
        g = parse_group_spec(name)
        match = rf"^F_5 has no element of order q = {q}\b"
        with pytest.raises(TableConstructionError, match=match):
            modp_eigenbasis(g, 5)
        monkeypatch.setattr(tablegen, "choose_prime", lambda g: 5)
        with pytest.raises(TableConstructionError, match=match):
            build_character_table(g)

    @pytest.mark.parametrize("name", ["S4", "A5"])
    def test_a_space_left_whole_fails_loudly(self, monkeypatch, name):
        # a split that hands every space back whole leaves spaces of
        # dimension > 1 after the last class: the split names its prime and
        # raises, rather than fail to unpack a space as one line
        monkeypatch.setattr(tablegen, "_split_space", lambda rows, pivots, *_: [(rows, pivots)])
        g = parse_group_spec(name)
        p = choose_prime(g)
        with pytest.raises(TableConstructionError,
                           match=rf"^failed to separate eigenspaces over F_{p} \(bad prime\)$"):
            modp_eigenbasis(g, p)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(a, p):
    """Oracle: reduced row echelon form of a over F_p and its pivot columns;
    zero rows dropped."""
    m = [[x % p for x in row] for row in a]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


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
    reduced, _ = rref([row + unit for row, unit in zip(P, identity(n))], p)
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

    def test_a_reduction_that_finds_no_dependency_stops_at_n_plus_one_vectors(
            self, monkeypatch):
        # n + 1 vectors of length n are dependent, so no more are drawn: a
        # fault that hides every dependency returns None instead of hanging
        drawn = []
        monkeypatch.setattr(mp, "_dependencies", lambda rows, p: drawn.extend(rows) or iter(()))
        assert mp.minimal_polynomial([[1, 2, 0], [0, 1, 2], [2, 0, 1]], [1, 0, 0], 5) is None
        assert len(drawn) == 4


class TestNullspaceRows:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([5, 13, 37]), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 6), st.randoms(use_true_random=False))
    def test_rref_basis_of_left_null_space(self, p, n, m, rank, rnd):
        # a = b c with b n x rank and c rank x m has rank <= rank
        b = [[rnd.randrange(p) for _ in range(rank)] for _ in range(n)]
        c = [[rnd.randrange(p) for _ in range(m)] for _ in range(rank)]
        a = mp.mat_mul(b, c, p) if rank else [[0] * m for _ in range(n)]
        rows, q = mp.nullspace_rows(a, p)
        assert [[v[i] for i in q] for v in rows] == identity(len(q))
        assert len(rows) == n - len(rref(a, p)[0])
        for v in rows:
            assert not any(mp.mat_mul([v], a, p)[0])
        assert rref(rows, p) == (rows, q)

    def test_each_dependent_row_is_one_of_the_identity(self):
        # row 1 is row 0, and row 3 is row 0 + row 2: reduced last first,
        # rows 1 and 0 depend on the rows after them, and each null vector
        # is 1 at its own row and 0 at the other
        p = 13
        a = [[1, 2, 0], [1, 2, 0], [0, 1, 1], [1, 3, 1]]
        rows, q = mp.nullspace_rows(a, p)
        assert q == [0, 1]
        assert rows == [[1, 0, 1, 12], [0, 1, 1, 12]]


class TestSplitSpace:
    @pytest.mark.parametrize("p, mat", [
        (13, [[5, 1], [0, 5]]),
        (17, [[3, 1, 0], [0, 3, 0], [0, 0, 9]]),
    ])
    def test_jordan_block_fails_on_first_draw(self, p, mat):
        # column 0 of the basis has a minimal polynomial with a repeated
        # root, so the one pass finds eigenspaces that fall short of d
        d = len(mat)
        rows, pivots = rref(identity(d), p)
        with pytest.raises(TableConstructionError, match=rf"F_{p}.*dimension {d}"):
            _split_space(rows, pivots, mat, p)

    def test_column_0_that_misses_an_eigenspace_fails_loudly(self):
        # diagonalizable, but column 0 of the identity basis lies in one
        # eigenspace: no space of central characters has such a column, and
        # the split raises rather than return a space it did not split
        p = 13
        with pytest.raises(TableConstructionError, match=rf"F_{p}.*dimension 2"):
            _split_space(*rref(identity(2), p), [[1, 0], [0, 2]], p)

    @pytest.mark.parametrize("name, j", [("S3", 2), ("S4", 3), ("A5", 4)])
    def test_one_pass_gives_every_eigenspace(self, name, j):
        # the whole space, split by a class matrix that is not scalar on
        # it: every central character is 1 at column 0, so one minimal
        # polynomial has every eigenvalue as a root
        g = parse_group_spec(name)
        cc = class_constants(g)
        p = choose_prime(g)
        eigvecs, _ = modp_eigenbasis(g, p)
        mat = cc.a[j]
        assert len({v[j] for v in eigvecs}) > 1
        rows, pivots = rref(identity(cc.h), p)
        spaces = _split_space(rows, pivots, mat, p)
        assert sum(len(r) for r, _ in spaces) == cc.h
        assert len(spaces) == len({v[j] for v in eigvecs})
        for sub, _ in spaces:
            # every space is the span of the eigenvectors of one eigenvalue
            members = [v for v in eigvecs
                       if len(rref(sub + [v], p)[0]) == len(sub)]
            assert len(members) == len(sub)
            assert len({v[j] for v in members}) == 1

    # groups that leave a space to split after the linear lines: D4xC2^3
    # over the small field F_17, and D4^3 (h = 125)
    @pytest.mark.parametrize("spec", ["S4", D4_X_C2_X_C2_X_C2, "D6", D4_CUBED])
    def test_one_minimal_polynomial_per_split(self, monkeypatch, spec):
        # column 0 of each space meets every eigenspace, so no space needs
        # a second vector and a second minimal polynomial
        calls = []
        for module, name in [(tablegen, "_split_space"), (mp, "minimal_polynomial")]:
            def spy(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, spy)
        g = parse_group_spec(spec)
        assert len(modp_eigenbasis(g, choose_prime(g))[0]) == len(g.conjugacy_classes())
        splits = calls.count("_split_space")
        assert splits > 0
        assert calls.count("minimal_polynomial") == splits

    @pytest.mark.parametrize("name, j", [("S4", 3), ("A5", 4), ("S5", 4)])
    def test_any_basis_identity_on_its_pivots_splits_alike(self, name, j):
        # the span of all but one of the simultaneous eigenvectors, in RREF
        # and in a basis that is the identity on pivots in descending order
        # with entries left of a pivot
        g = parse_group_spec(name)
        p = choose_prime(g)
        eigvecs, _ = modp_eigenbasis(g, p)
        mat = tablegen.class_matrix(g.conjugacy_classes(), j)
        echelon, echelon_pivots = rref(eigvecs[1:], p)
        k = len(echelon)
        pivots = next(cols for cols in (list(reversed(c)) for c in combinations(range(len(mat)), k))
                      if sorted(cols) != echelon_pivots
                      and len(rref([[row[c] for c in cols] for row in echelon], p)[0]) == k)
        square = [[row[c] for c in pivots] for row in echelon]
        inverse = [row[k:] for row in rref([r + u for r, u in zip(square, identity(k))], p)[0]]
        other = mp.mat_mul(inverse, echelon, p)
        assert [[row[c] for c in pivots] for row in other] == identity(k)
        assert any(row[c] for row, piv in zip(other, pivots) for c in range(piv))

        def split(rows, piv):
            spaces = _split_space(rows, piv, mat, p)
            for sub, sub_pivots in spaces:
                assert [[row[c] for c in sub_pivots] for row in sub] == identity(len(sub))
            return [rref(sub, p)[0] for sub, _ in spaces]

        spaces = split(other, pivots)
        assert len(spaces) > 1
        assert spaces == split(echelon, echelon_pivots)

    @staticmethod
    def diagonal_space(eigenvalues):
        """A space whose coordinates the matrix scales by the eigenvalues,
        its basis the identity on the columns after 0 and 1 at column 0, so
        that column 0 meets every eigenspace."""
        d = len(eigenvalues)
        rows = [[1] + [1 if c == t else 0 for c in range(d)] for t in range(d)]
        mat = [[0] * (d + 1)] + [[lam if c == t + 1 else 0 for c in range(d + 1)]
                                 for t, lam in enumerate(eigenvalues)]
        return rows, list(range(1, d + 1)), mat

    @pytest.mark.parametrize("eigenvalues, twists, kept", [
        # -1 maps the eigenspace of 1 onto that of -1: one is computed
        ([1, 12], (1, 12), [1]),
        # 0 is an orbit of its own
        ([0, 1, 12], (1, 12), [0, 1]),
        # the twists of order 3 take 1 to 3 and 9, and 2 to 6 and 5
        ([1, 3, 9, 2, 6, 5], (1, 3, 9), [1, 2]),
        # no twist but 1: every eigenspace
        ([1, 12], (1,), [1, 12]),
    ])
    def test_one_eigenspace_per_orbit_of_twists(self, eigenvalues, twists, kept):
        p = 13
        rows, pivots, mat = self.diagonal_space(eigenvalues)
        spaces = _split_space(rows, pivots, mat, p, twists)
        assert [[eigenvalues[c - 1] for c in piv] for _, piv in spaces] == [[lam] for lam in kept]
        for (sub,), (c,) in spaces:
            assert sub == rows[c - 1]

    @pytest.mark.parametrize("eigenvalues, twists, match", [
        # the twist -1 of the root 1 is not a root
        ([1, 3], (1, 12), r"^F_13 split: eigenvalue 1 has the twist 12, which is not a root"),
        # the eigenspace of 12 is twice that of its twist 1
        ([1, 12, 12], (1, 12),
         r"F_13 \(subspace dimension 3, eigenspaces and their twists fill 2"),
    ])
    def test_twists_that_do_not_map_eigenspaces_onto_eigenspaces_fail_loudly(
            self, eigenvalues, twists, match):
        rows, pivots, mat = self.diagonal_space(eigenvalues)
        with pytest.raises(TableConstructionError, match=match):
            _split_space(rows, pivots, mat, 13, twists)

    def test_a_minimal_polynomial_that_is_not_found_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(mp, "minimal_polynomial", lambda a, v, p: None)
        rows, pivots, mat = self.diagonal_space([1, 3])
        with pytest.raises(TableConstructionError, match=r"^F_13 split: no dependency among "
                           r"the 3 Krylov vectors of a space of dimension 2$"):
            _split_space(rows, pivots, mat, 13)


class TestDegrees:
    def test_s5_multiset(self):
        g = parse_group_spec("S5")
        p = choose_prime(g)
        vectors, _ = modp_eigenbasis(g, p)
        degrees = degrees_from_eigen(g, vectors, p)
        assert sorted(degrees) == [1, 1, 4, 4, 5, 5, 6]

    def test_q8(self):
        g = parse_group_spec("Q8")
        p = choose_prime(g)
        degrees = degrees_from_eigen(g, modp_eigenbasis(g, p)[0], p)
        assert sorted(degrees) == [1, 1, 1, 1, 2]

    def test_trivial(self):
        g = parse_group_spec("C1")
        p = choose_prime(g)
        assert degrees_from_eigen(g, modp_eigenbasis(g, p)[0], p) == [1]

    def test_perturbed_eigenvector_names_its_residue(self):
        g = parse_group_spec("S5")
        p = choose_prime(g)
        data = g.conjugacy_classes()
        v = modp_eigenbasis(g, p)[0][-1]
        v[1] = (v[1] + 1) % p
        # n^2 = |G| / sum_j v_j v_j* / r_j mod p, and no divisor n of |G|
        # has that square
        s = sum(v[j] * v[k] * pow(r, -1, p)
                for j, (k, r) in enumerate(zip(data.inverse_class, data.sizes)))
        n_sq = g.order * pow(s, -1, p) % p
        assert all(n * n % p != n_sq for n in range(1, g.order + 1) if g.order % n == 0)
        with pytest.raises(TableConstructionError, match=rf"residue {n_sq}\b.*\b120\b"):
            degrees_from_eigen(g, [v], p)

    def test_each_failure_names_its_row_and_p(self, monkeypatch):
        # S5's last line, row 6, with one entry moved: no divisor of 120 has
        # its degree residue
        g = parse_group_spec("S5")
        p = choose_prime(g)
        vectors, _ = modp_eigenbasis(g, p)
        vectors[6][1] = (vectors[6][1] + 1) % p
        with pytest.raises(TableConstructionError, match=(
                rf"^degrees: p = {p}, row 6: degree residue 57 is not the square of a divisor "
                r"of \|G\| = 120$")):
            degrees_from_eigen(g, vectors, p)
        # 3 divides |S3| = 6, so every line's orthogonality sum is 0 mod 3,
        # and row 0's is read first
        monkeypatch.setattr(tablegen, "choose_prime", lambda g: 3)
        with pytest.raises(TableConstructionError,
                           match=r"^degrees: p = 3, row 0: degenerate orthogonality sum$"):
            build_character_table(parse_group_spec("S3"))
        # at p = 7 every line of S5 has a residue, but not the right one
        monkeypatch.setattr(tablegen, "choose_prime", lambda g: 7)
        with pytest.raises(TableConstructionError, match=(
                r"^degrees: p = 7: recovered degrees \[5, 5, 8, 8, 8, 10, 10\] "
                r"violate sum of squares = 120$")):
            build_character_table(g)


def test_build_with_a_bad_prime_fails_loudly(monkeypatch):
    # p = 7 is below 2 sqrt(|S5|) and not 1 mod the exponent 60, yet the split
    # succeeds; the degree residues mod 7 then name wrong degrees, and the
    # sum of squares catches them
    monkeypatch.setattr(tablegen, "choose_prime", lambda g: 7)
    with pytest.raises(TableConstructionError, match="violate sum of squares = 120"):
        build_character_table(parse_group_spec("S5"))


def test_a_table_with_fewer_rows_than_classes_is_refused():
    g = parse_group_spec("S3")
    rows = build_character_table(g).rows[:-1]
    with pytest.raises(TableConstructionError, match="^table is not square: 2 rows, 3 classes$"):
        CharacterTable(g, rows)


def test_a_table_with_rows_of_another_group_is_refused():
    # C3's rows on S3: both act on 3 points and have 3 classes, so only the
    # groups' generators tell the rows apart
    rows = build_character_table(parse_group_spec("C3")).rows
    with pytest.raises(GroupMismatchError, match="^table rows on a different group$"):
        CharacterTable(parse_group_spec("S3"), rows)


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
        assert same_abstract_table(d4, q8)
        assert same_abstract_table(q8, d4)
        assert not same_abstract_table(d4, build_character_table(parse_group_spec("C8")))

    def test_cyclic_powers(self):
        # chi_r(g^s) = zeta_n^(r s); compare as row sets against all r
        for n in [2, 3, 5, 7]:
            g = parse_group_spec(f"C{n}")
            table = build_character_table(g)
            data = g.conjugacy_classes()
            gen = parse_group_spec(f"C{n}").generators[0]
            logs = []
            for rep in data.representatives:
                power, s = gen ** 0, 0
                while power != rep:
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
    assert same_abstract_table(table, build_character_table(g))


def direct_product(g, k):
    """G x K on disjoint point sets: G moves 0..n-1, K moves n..n+m-1."""
    n, m = g.degree, k.degree
    gens = [Perm(x + tuple(range(n, n + m))) for x in g.generators]
    gens += [Perm(tuple(range(n)) + tuple(n + i for i in y)) for y in k.generators]
    return PermGroup(n + m, gens)


@pytest.mark.parametrize("left, right", [("D4", "S3"), ("Q8", "C3"), ("A5", "C3")])
def test_direct_product_table_is_the_outer_product(left, right):
    # Irr(G x K) = {chi x psi}, (chi x psi)(g, k) = chi(g) psi(k): an oracle
    # built from the factors' tables alone.  The projections onto the two
    # point sets map each class of the product to its pair of factor classes
    g, k = parse_group_spec(left), parse_group_spec(right)
    product = direct_product(g, k)
    n = g.degree
    g_index, k_index = g.conjugacy_classes().member_index, k.conjugacy_classes().member_index
    pairs = [(g_index[Perm(x[:n])], k_index[Perm(i - n for i in x[n:])])
             for x in product.conjugacy_classes().representatives]
    outer = [[chi.values[a] * psi.values[b] for a, b in pairs]
             for chi in build_character_table(g).rows
             for psi in build_character_table(k).rows]
    rows = [list(row.values) for row in build_character_table(product).rows]
    # a bijection: each outer product equals exactly one row, and each row
    # exactly one outer product
    assert len(rows) == len(outer) == len(pairs)
    for values in outer:
        assert sum(r == values for r in rows) == 1, values
    for r in rows:
        assert sum(r == values for values in outer) == 1, r


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([D4_X_D4, Q8_X_S3_X_C2, S3_X_S3_X_C3, D4_X_C2_X_C2_X_C2]),
       st.integers(0, 2**32 - 1))
def test_eigenvectors_of_every_class_matrix(name, seed):
    # the split reads only some class matrices; every final vector must still
    # be an eigenvector of all of them, M_j v = v[j] v, the skipped included
    g = parse_group_spec(relabeled_spec(parse_group_spec(name), seed))
    data = g.conjugacy_classes()
    p = choose_prime(g)
    vectors, _ = modp_eigenbasis(g, p)
    for j in range(len(data)):
        mat = tablegen.class_matrix(data, j)
        for v in vectors:
            assert [sum(map(mul, row, v)) % p for row in mat] == [v[j] * x % p for x in v]


class TestLift:
    def _stages(self, spec="A5"):
        g = parse_group_spec(spec)
        p = choose_prime(g)
        vectors, _ = modp_eigenbasis(g, p)
        return g, p, vectors, degrees_from_eigen(g, vectors, p)

    def _set_value(self, g, p, v, n, j, c):
        # the eigenvector entry at which chi(g_j) = n v[j] / r_j is c mod p
        v[j] = c * g.conjugacy_classes().sizes[j] * pow(n, -1, p) % p

    def test_wrong_rational_value_breaks_its_column(self):
        # chi(g) = 1 on the 3-cycles for the degree-4 character of A5; 0 is
        # within the degree bound, but sum_i n_i chi_i(g) is no longer 0
        g, p, vectors, degrees = self._stages()
        j = g.conjugacy_classes().element_orders.index(3)
        i = degrees.index(4)
        self._set_value(g, p, vectors[i], 4, j, 0)
        message = f"lift: p = {p}, class {j}, rows 0 to 4: sum of degree times value is -4, not 0"
        with pytest.raises(TableConstructionError, match=f"^{message}$"):
            lift_characters(g, vectors, degrees, p)

    def test_wrong_value_on_a_galois_conjugate_class_fails(self):
        # each class of 5-cycles has its own DFT, and each DFT reads chi on
        # both classes, so a wrong value there breaks that row's lift
        g, p, vectors, degrees = self._stages()
        orders = g.conjugacy_classes().element_orders
        j = len(orders) - 1 - orders[::-1].index(5)
        assert orders.index(5) < j
        for i, n in enumerate(degrees):
            chi = n * vectors[i][j] * pow(g.conjugacy_classes().sizes[j], -1, p) % p
            self._set_value(g, p, vectors[i], n, j, chi + 1)
            with pytest.raises(TableConstructionError, match="multiplicit"):
                lift_characters(g, vectors, degrees, p)
            self._set_value(g, p, vectors[i], n, j, chi)
        assert same_abstract_table(lift_characters(g, vectors, degrees, p),
                                   build_character_table(g))

    def test_prime_without_an_element_of_order_e_fails_at_the_lift(self):
        # S5 has exponent 60, and 60 does not divide 31 - 1; the split and the
        # degrees still succeed at p = 31, so the lift is the first stage
        # that needs an element of order e in F_p
        g = parse_group_spec("S5")
        vectors, _ = modp_eigenbasis(g, 31)
        degrees = degrees_from_eigen(g, vectors, 31)
        assert sorted(degrees) == [1, 1, 4, 4, 5, 5, 6]
        with pytest.raises(TableConstructionError, match=r"^lift: exponent e = 60 .* p = 31\b"):
            lift_characters(g, vectors, degrees, 31)

    @pytest.mark.parametrize("larger", [False, True])
    def test_bounds_are_checked_on_entries_whose_value_is_already_made(self, larger):
        # row b takes row a's values, chi_b = chi_a mod p, at the identity
        # class and at the classes lifted by a DFT (A7's two classes of
        # 7-cycles, whose power maps meet no other class): each DFT of row
        # b was made for row a, yet the bounds must hold for row b's own
        # degree n_b.  Its other rational classes, and their column sums,
        # are untouched
        g = parse_group_spec("A7")
        p = choose_prime(g)
        vectors, _ = modp_eigenbasis(g, p)
        degrees = degrees_from_eigen(g, vectors, p)
        a, b = next((a, b) for a in range(len(degrees)) for b in range(a + 1, len(degrees))
                    if degrees[a] != degrees[b] and (degrees[b] > degrees[a]) == larger)
        n_a, n_b = degrees[a], degrees[b]
        data = g.conjugacy_classes()
        assert [j for j, d in enumerate(data.element_orders) if d == 7] == [5, 6]
        assert set(data.power_class[5]) == set(data.power_class[6]) == {0, 5, 6}
        for j in (0, 5, 6):
            vectors[b][j] = vectors[a][j] * n_a * pow(n_b, -1, p) % p
        # chi_b(1) = n_a: above a smaller degree at the identity class, the
        # first class lifted; below a larger one, so the first class lifted
        # by a DFT, class 5, is the first fault, its multiplicities those
        # of row a, summing to n_a
        message = (f"class 5, row {b}: multiplicities sum to {n_a}, expected degree {n_b}"
                   if larger else f"class 0, row {b}: rational value {n_a} exceeds degree {n_b}")
        with pytest.raises(TableConstructionError, match=rf"^lift: p = {p}, {message}$"):
            lift_characters(g, vectors, degrees, p)

    def _message(self, g, p, vectors, degrees):
        with pytest.raises(TableConstructionError) as failure:
            lift_characters(g, vectors, degrees, p)
        return str(failure.value)

    def _moved(self, g, p, vectors, degrees, i, j, to=None):
        # a copy of the vectors with chi_i(g_j) mod p set to `to`, or moved
        # up by 1
        vectors = [list(v) for v in vectors]
        if to is None:
            to = degrees[i] * vectors[i][j] * pow(g.conjugacy_classes().sizes[j], -1, p) + 1
        self._set_value(g, p, vectors[i], degrees[i], j, to)
        return vectors

    @pytest.mark.parametrize("spec, first, second, messages", [
        # A5's classes are lifted in the order 0, 3, 4 (rational), then 1, 2:
        # row 0 (degree 1) takes 2 at class 4, and row 1 (degree 5) 6 at
        # class 3
        ("A5", (0, 4, 2), (1, 3, 6), ("class 4, row 0: rational value 2 exceeds degree 1",
                                      "class 3, row 1: rational value 6 exceeds degree 5")),
        # A5xC3, each value moved up by 1 at a class lifted by a DFT: class 3
        # (a 5-cycle) and class 1 (z, of order 3) are each outside the
        # other's power map
        ("perm:8:(0,1,2);(0,1,2,3,4);(5,6,7)", (0, 3), (3, 1),
         ("class 3, row 0: multiplicities sum to 94, expected degree 1",
          "class 1, row 3: multiplicities sum to 67, expected degree 5")),
        # A5 at class 1, the first class lifted by a DFT: row 4 (degree 4)
        # and row 0 (degree 1) both fail there, and the lower row is reported
        ("A5", (4, 1), (0, 1), ("class 1, row 4: multiplicities sum to 97, expected degree 4",
                                "class 1, row 0: multiplicities sum to 94, expected degree 1")),
    ])
    def test_the_first_class_lifted_is_reported_before_a_lower_row(
            self, spec, first, second, messages):
        # row a fails at class j_a only, and row b at class j_b, which the
        # lift reaches first (or at j_a, with b < a): its fault is the one
        # reported when both are present
        g, p, vectors, degrees = self._stages(spec)
        row_a = self._moved(g, p, vectors, degrees, *first)
        row_b = self._moved(g, p, vectors, degrees, *second)
        both = self._moved(g, p, row_a, degrees, *second)
        expected = [f"lift: p = {p}, {m}" for m in messages]
        assert self._message(g, p, row_a, degrees) == expected[0]
        assert self._message(g, p, row_b, degrees) == expected[1]
        assert self._message(g, p, both, degrees) == expected[1]

    @pytest.mark.parametrize("fault, message", [
        # row 0 (degree 1) takes 2 at class 4, a later rational class
        ((0, 4, 2), "class 3, rows 0 to 4: sum of degree times value is -10, not 0"),
        # row 4 (degree 4) moved up by 1 at class 2, a class lifted by a DFT
        ((4, 2), "class 3, rows 0 to 4: sum of degree times value is -10, not 0"),
        # row 0 takes 2 at class 3 itself: the column's entries come first
        ((0, 3, 2), "class 3, row 0: rational value 2 exceeds degree 1"),
    ])
    def test_a_rational_column_sum_is_reported_after_its_entries(self, fault, message):
        # row 1 (degree 5) takes -1 at (12)(34), class 3, where it holds 1:
        # within its bound, but column 3 now sums to -10, which is reported
        # before the faults of every class lifted after class 3 (4, then 1
        # and 2)
        g, p, vectors, degrees = self._stages()
        assert degrees == [1, 5, 3, 3, 4]
        column = self._moved(g, p, vectors, degrees, 1, 3, -1)
        assert (self._message(g, p, column, degrees)
                == f"lift: p = {p}, class 3, rows 0 to 4: sum of degree times value is -10, not 0")
        assert (self._message(g, p, self._moved(g, p, column, degrees, *fault), degrees)
                == f"lift: p = {p}, {message}")

    @staticmethod
    def _reductions_in_lift(g, monkeypatch):
        """The number of cyclo._reduce calls lift_characters makes on g."""
        p = choose_prime(g)
        vectors, _ = modp_eigenbasis(g, p)
        degrees = degrees_from_eigen(g, vectors, p)
        calls = [0]
        reduce = cyclo._reduce

        def counting(e, nums):
            calls[0] += 1
            return reduce(e, nums)

        monkeypatch.setattr(cyclo, "_reduce", counting)
        lift_characters(g, vectors, degrees, p)
        monkeypatch.undo()
        return calls[0]

    def test_each_distinct_value_is_made_once(self, monkeypatch):
        # D4xD4xC3 has 3,750 entries on its 50 non-rational classes, but few
        # distinct values there; making one per entry reduces 3,750 times
        g = parse_group_spec(D4_X_D4_X_C3)
        power_class = g.conjugacy_classes().power_class
        rational = [j for j, powers in enumerate(power_class)
                    if all(powers[s] == j for s in range(len(powers))
                           if math.gcd(s, len(powers)) == 1)]
        entries = len(power_class) * (len(power_class) - len(rational))
        assert entries == 3_750
        assert 0 < self._reductions_in_lift(g, monkeypatch) <= entries // 10

    def test_one_value_per_distinct_power_map_tuple(self, monkeypatch):
        # C7: six non-rational classes, one Galois orbit, and seven rows.  In
        # row k the tuple along the power map of g^a depends only on ka mod 7,
        # so the 42 non-rational entries hold 7 distinct tuples: one DFT each
        g = parse_group_spec("C7")
        assert 0 < self._reductions_in_lift(g, monkeypatch) <= 7

    @pytest.mark.parametrize("spec", ["A7", "perm:24:(" + ",".join(map(str, range(24))) + ")"])
    def test_no_value_is_a_galois_image_of_another(self, spec, monkeypatch):
        # every non-rational class is lifted from its own power map, so the
        # Galois relation between classes is left for test_galois_closure
        g = parse_group_spec(spec)
        p = choose_prime(g)
        vectors, _ = modp_eigenbasis(g, p)
        degrees = degrees_from_eigen(g, vectors, p)
        calls = []
        galois = Cyclo.galois

        def spying(self, t):
            calls.append(t)
            return galois(self, t)

        monkeypatch.setattr(Cyclo, "galois", spying)
        table = lift_characters(g, vectors, degrees, p)
        assert calls == []
        assert any(not v.is_rational() for row in table.rows for v in row.values)

    @pytest.mark.parametrize("spec", [
        "A5", "A7", "Q8",
        "perm:10:(1,4,8,3);(3,4);(0,7);(0,9,7);(2,5,6)",  # relabeled D4xS3xC3, e = 12
        "C7",  # an orbit of 6 classes, on which sigma_s and sigma_(1/s) differ
        # C24: zeta_8 and zeta_12 have the same numerators (0, 1, 0, 0), and
        # sigma_5 maps them to different values
        "perm:24:(" + ",".join(map(str, range(24))) + ")",
        "perm:8:(0,1,2);(0,1,2,3,4);(5,6,7)",  # relabeled A5xC3: orbits at order 15
    ])
    def test_galois_closure(self, spec):
        # sigma_s: zeta -> zeta^s, s a unit mod the exponent e, permutes the
        # irreducible characters, and chi(g^s) = sigma_s(chi(g))
        g = parse_group_spec(spec)
        power_class = g.conjugacy_classes().power_class
        rows = [row.values for row in build_character_table(g).rows]
        units = [s for s in range(1, g.exponent) if math.gcd(s, g.exponent) == 1]
        assert len(units) > 1
        for s in units:
            for values in rows:
                image = tuple(v.galois(s) for v in values)
                assert image in rows
                for j, powers in enumerate(power_class):
                    assert values[powers[s % len(powers)]] == image[j]


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


# five relabeled direct products of the benchmark's factors, C2^8, D4^3 and
# C24 (a generator whose power first meets G' at d = 24); in D4xD4xC3 and
# Q8xS3xC2 the twists by 48 and 16 linear characters merge the nonlinear
# lines into orbits
LINEAR_ORACLE_GROUPS = list(BUILTIN_NAMES) + [
    "perm:14:(0,7,13,5)(4,8,12,9);(0,9,13,8)(4,7,12,5);(1,11,6,2);(2,11);(3,10)",  # Q8xD4xC2
    "perm:10:(1,4,6,8);(1,6);(2,7);(2,5,7);(0,9,3)",  # D4xS3xC3
    "perm:9:(2,3);(1,3,2,8);(4,5);(0,4,5);(6,7)",  # S4xS3xC2
    D4_X_D4_X_C3,
    "perm:13:(1,2,7,6)(5,12,10,11);(1,12,7,11)(2,5,6,10);(0,3);(0,9,3);(4,8)",  # Q8xS3xC2
    C2_8, D4_CUBED, C24,
]


def held(f):
    return tuple((v.order, v.nums, v.den) for v in f.values)


def assert_all_linear_characters(g, chars):
    """An oracle that reads only the group's multiplication: each row is a
    homomorphism G -> C^*, checked as chi(s x) = chi(s) chi(x) for every
    generator s and element x, with chi(1) = 1; the rows are distinct; and
    there are [G:G'] of them, the number of homomorphisms, so they are all."""
    index = g.conjugacy_classes().member_index
    triples = {(index[s], index[x], index[s * x]) for s in g.generators for x in g.elements}
    for chi in chars:
        v = chi.values
        assert v[0] == 1
        assert all(v[a] * v[b] == v[c] for a, b, c in triples)
    assert len({held(chi) for chi in chars}) == len(chars)
    assert len(chars) == g.order // g.commutator_subgroup().order


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
        assert data.sizes[1] == 1
        for chi in chars:
            assert chi.values[1] == 1

    # D4xD4xC3: G/G' = C2^4 x C3, 48 linear characters
    @pytest.mark.parametrize("name", BUILTINS_LE_24 + ["A5", "S5", D4_X_D4_X_C3, C2_4])
    def test_matches_table_rows(self, name):
        g = parse_group_spec(name)
        table = build_character_table(g)
        chars = linear_characters(g)
        table_linear = [r for r in table.rows if r.values[0] == 1]
        assert len(chars) == len(table_linear)
        for chi in chars:
            assert any(chi == row for row in table_linear)

    def test_s8_quotient_read_off_class_representatives(self, monkeypatch):
        s8 = parse_group_spec("S8")
        g = PermGroup(s8.degree, s8.generators)
        g.commutator_subgroup()
        count = count_perm_products(monkeypatch)
        assert len(linear_characters(g)) == 2
        # a few dozen; enumerating every element times G' makes 40,325
        assert count[0] < 1_000

    def test_c2_8_quotient_read_off_class_representatives(self, monkeypatch):
        c2_8 = parse_group_spec(C2_8)
        g = PermGroup(c2_8.degree, c2_8.generators)
        g.commutator_subgroup()
        count = count_perm_products(monkeypatch)
        assert len(linear_characters(g)) == 256
        # 1,801: one per generator for its power, one per class outside
        # each H; a search of the classes against every coset of G' found
        # so far made 32,903
        assert count[0] < 2_500

    @pytest.mark.parametrize("name", LINEAR_ORACLE_GROUPS)
    def test_rows_are_all_the_homomorphisms(self, name):
        g = parse_group_spec(name)
        assert_all_linear_characters(g, linear_characters(g))

    @pytest.mark.parametrize("spec, same_as", [
        # an identity generator: C1, and C3 with an identity beside its 3-cycle
        ("perm:1:()", "C1"),
        ("perm:3:();(0,1,2)", "C3"),
        # a repeated generator
        ("perm:4:(0,1,2,3);(1,3);(0,1,2,3)", "D4"),
        ("perm:5:(0,1);(0,1);(0,1,2,3,4)", "S5"),
        # a generator inside G': a 3-cycle of S4, and a double transposition
        # of A4
        ("perm:4:(0,1,2);(0,1);(0,1,2,3)", "S4"),
        ("perm:4:(0,1)(2,3);(0,1,2);(1,2,3)", "A4"),
    ])
    def test_degenerate_generators(self, spec, same_as):
        g = parse_group_spec(spec)
        chars = linear_characters(g)
        assert_all_linear_characters(g, chars)
        expected = linear_characters(parse_group_spec(same_as))
        assert [held(r) for r in chars] == [held(r) for r in expected]

    def test_each_distinct_power_is_made_once(self, monkeypatch):
        # C2^8: 256 characters on 256 classes, 65,536 values, all 1 or -1
        made = []

        def recording(e, k=1):
            made.append((e, k))
            return root_of_unity(e, k)

        monkeypatch.setattr(tablegen, "root_of_unity", recording)
        assert len(linear_characters(parse_group_spec(C2_8))) == 256
        assert sorted(made) == [(1, 0), (2, 1)]

    def test_distinct_and_closed_under_product(self):
        g = parse_group_spec("D6")
        chars = linear_characters(g)
        for i, c1 in enumerate(chars):
            for j, c2 in enumerate(chars):
                if i != j:
                    assert c1 != c2
                prod = c1 * c2
                assert any(prod == c for c in chars)


def full_split(g, p):
    """Oracle: the lines of the split from all of F_p^h, with no line known
    in advance, each scaled to 1 at column 0, sorted."""
    data = g.conjugacy_classes()
    h = len(data)
    spaces = [(identity(h), list(range(h)))]
    for j in range(1, h):
        is_open = [len(rows) > 1 and not _acts_as_scalar(rows, j, p) for rows, _ in spaces]
        if any(is_open):
            mat = tablegen.class_matrix(data, j)
            spaces = [part for space, split in zip(spaces, is_open)
                      for part in (_split_space(*space, mat, p) if split else [space])]
    assert all(len(rows) == 1 for rows, _ in spaces)
    return sorted(tuple(x * pow(v[0], p - 2, p) % p for x in v) for (v,), _ in spaces)


class TestSeededSplit:
    @pytest.mark.parametrize("name", LINEAR_ORACLE_GROUPS)
    def test_lines_match_the_full_split(self, name):
        # the linear lines seeded from their exponents and the lines split
        # from the space that sums to 0 on each coset of G' are the lines
        # of the split from the whole space
        g = parse_group_spec(name)
        p = choose_prime(g)
        assert sorted(map(tuple, modp_eigenbasis(g, p)[0])) == full_split(g, p)

    @pytest.mark.parametrize("name", LINEAR_ORACLE_GROUPS + ["A6", "A7", "A8", "S8"])
    def test_split_classes_separate_the_lines(self, name):
        # with the identity class they generate Z(CG), which the central
        # identity of check_all relies on
        g = parse_group_spec(name)
        p = choose_prime(g)
        split = build_character_table(g).split_classes
        assert len(set(split)) == len(split)
        lines, _ = modp_eigenbasis(g, p)
        assert len({tuple(v[j] for j in split) for v in lines}) == len(lines)

    @pytest.mark.parametrize("name", ["S5", D4_X_S3])
    def test_split_classes_read_from_the_kept_lines_on_first_use(self, monkeypatch, name):
        # a build reads no split classes; the first read takes them from
        # the lines the build kept, which then go, and no split runs again
        g = parse_group_spec(name)
        expected = tablegen.split_classes(modp_eigenbasis(g, choose_prime(g))[0])
        calls = []
        real = tablegen.split_classes

        def spy(lines):
            calls.append(lines)
            return real(lines)

        def no_split(g, p):
            raise AssertionError("the split ran again")

        monkeypatch.setattr(tablegen, "split_classes", spy)
        table = build_character_table(g)
        assert not calls
        monkeypatch.setattr(tablegen, "modp_eigenbasis", no_split)
        assert table.split_classes == expected
        assert table.split_classes == expected
        assert len(calls) == 1
        assert table._eigenbasis is None

    @pytest.mark.parametrize("name, values, split", [
        ("C1", [[1]], ()),
        ("S1", [[1]], ()),
        ("C2", [[1, 1], [1, -1]], (1,)),
        ("perm:1:()", [[1]], ()),
    ])
    def test_smallest_tables(self, name, values, split):
        # one class, or every row linear with no class matrix to read
        table = build_character_table(parse_group_spec(name))
        assert [row.values for row in table.rows] == [tuple(row) for row in values]
        assert table.split_classes == split


# the calls of `_split_space` and `nullspace_rows` (one per eigenspace
# computed) of the split: one space per orbit of the twists by the linear
# characters.  Splitting every space took 60 and 120 on D4^3, 23 and 49 on
# D4xD4xC3, and 4 and 23 on S8, whose sign character pairs 18 of its 20
# nonlinear lines; the perfect A8 has no twist but 1
SPLIT_COUNTS = [(D4_CUBED, 24, 30), (D4_X_D4_X_C3, 9, 11), ("S8", 3, 13), ("A8", 4, 16)]


class TestTwistOrbits:
    @staticmethod
    def count_split_calls(monkeypatch):
        calls = []
        for module, name in [(tablegen, "_split_space"), (mp, "nullspace_rows")]:
            def spy(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("spec, splits, eigenspaces", SPLIT_COUNTS)
    def test_one_split_per_orbit_of_spaces(self, monkeypatch, spec, splits, eigenspaces):
        g = parse_group_spec(spec)
        calls = self.count_split_calls(monkeypatch)
        assert len(modp_eigenbasis(g, choose_prime(g))[0]) == len(g.conjugacy_classes())
        assert calls.count("_split_space") == splits
        assert calls.count("nullspace_rows") == eigenspaces

    @pytest.mark.parametrize("spec", [D4_X_D4_X_C3, Q8_X_S3_X_C2])
    def test_lines_that_are_not_distinct_fail_loudly(self, monkeypatch, spec):
        # a split that returns every eigenspace, while the caller still
        # carries the twisted copies of each part, gives some line twice and
        # more lines than there are nonlinear characters
        real = tablegen._split_space
        monkeypatch.setattr(tablegen, "_split_space",
                            lambda rows, pivots, mat, p, twists: real(rows, pivots, mat, p))
        g = parse_group_spec(spec)
        p = choose_prime(g)
        with pytest.raises(TableConstructionError,
                           match=rf"^F_{p} split: \d+ lines with their twists, \d+ distinct"):
            modp_eigenbasis(g, p)


NATURAL_FIELD_NAMES = BUILTINS_LE_24 + ["S5", "A5", "A6"]


@pytest.mark.parametrize("name", NATURAL_FIELD_NAMES)
def test_values_in_natural_field(name):
    # chi(g) lies in Q(zeta_d) for d the order of g; a rational value is in Q.
    # That holds for the lifted rows and for the linear characters of G/G'
    g = parse_group_spec(name)
    rows = build_character_table(g).rows + linear_characters(g)
    for j, order in enumerate(g.conjugacy_classes().element_orders):
        for row in rows:
            value = row.values[j]
            assert order % value.order == 0
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
        first = _render_table_json(build_character_table(g1))
        second = _render_table_json(build_character_table(g2))
        assert first == second

    @pytest.mark.parametrize("name", ["A7", "S6", D4_X_D4_X_C3, C24])
    def test_rows_sort_alike_with_the_keys_of_one_sort_or_of_each_row(self, name):
        # the canonical order keys each value object once, through the
        # table's index; keys made for each row on its own order the rows
        # alike, whatever order they come in
        g = parse_group_spec(name)
        rows = build_character_table(g).rows
        shuffled = rows[::-1]
        random.Random(0).shuffle(shuffled)
        assert sorted(shuffled, key=lambda r: documented_row_key(r.values)) == rows
        assert CharacterTable(g, shuffled).rows == rows


class TestSplitForms:
    def test_the_build_path_makes_no_split_form(self, monkeypatch):
        # a row's form is made on its first read, as the split classes are,
        # so a build and `chartab table` make none
        from chartab import classfun
        from chartab.cli import main

        def refused(*args):
            raise AssertionError("a split form was made")

        monkeypatch.setattr(classfun, "split", refused)
        table = build_character_table(parse_group_spec("A5"))
        assert all(row._split is None for row in table.rows)
        assert main(["table", "A5", "--format", "json"]) == 0

    def test_each_row_keeps_its_form(self):
        # A5's two rows of degree 3 hold (1 +- sqrt 5) / 2 at the two classes
        # of 5-cycles, and no other row holds a value that is not an int
        table = build_character_table(parse_group_spec("A5"))
        forms = [row.split for row in table.rows]
        assert all(row.split is form for row, form in zip(table.rows, forms))
        assert all(form[0] is row.values for row, form in zip(table.rows, forms))
        fives = [j for j, d in enumerate(table.class_data.element_orders) if d == 5]
        assert [form[2] for form in forms] == [[], fives, fives, [], []]
        for form in forms:
            assert all(form[1][j] == 0 for j in form[2])


class TestValueIndex:
    @pytest.mark.parametrize("name", ["S3", "A4", "A5", "A7", D4_X_D4_X_C3, C24])
    def test_cells_point_at_each_value_object_of_a_built_table(self, name):
        table = build_character_table(parse_group_spec(name))
        assert_value_index(table)
        # the lift makes each distinct value once, so the index is small
        assert len(table.values) < len(table) ** 2 or len(table) == 1

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ["A6", "A7", D4_X_D4_X_C3, C24])
    def test_a_built_table_holds_one_object_per_distinct_value(self, name):
        # the lift keeps one object per value, whether the rational path or
        # the DFT made it, so the index holds each value once
        table = build_character_table(parse_group_spec(name))
        held = {(v.order, v.nums, v.den) for v in table.values}
        assert len(held) == len(table.values)

    def test_a_build_makes_no_row_until_one_is_read(self, monkeypatch):
        # the degrees are read off the index, at each row's identity-class
        # cell, and the rows are made on first read, once
        made = []
        real = tablegen._rows
        monkeypatch.setattr(tablegen, "_rows", lambda *args: made.append(args) or real(*args))
        table = build_character_table(parse_group_spec("S4"))
        assert table.degrees == (1, 1, 2, 3, 3)
        assert not made
        assert table.rows is table.rows
        assert len(made) == 1
        assert table.degrees == tuple(row.values[0] for row in table.rows)

    def test_rows_and_an_index_together_are_refused(self):
        # S4's row 2 copied over row 1, handed beside the built table's index:
        # the rows and the index would be two tables, so neither is made
        g = parse_group_spec("S4")
        t = build_character_table(g)
        rows = [t.rows[0], t.rows[2], *t.rows[2:]]
        refusal = "^a CharacterTable takes exactly one of rows and index$"
        with pytest.raises(TypeError, match=refusal):
            CharacterTable(g, rows, (t.values, t.cells))
        with pytest.raises(TypeError, match=refusal):
            CharacterTable(g)
        # the rows alone are the table they hold, index and rows alike
        by_hand = CharacterTable(g, rows)
        assert by_hand.degrees == (1, 2, 2, 3, 3)
        assert by_hand.rows == rows
        assert_value_index(by_hand)

    @pytest.mark.parametrize("name", ["A5", "A7", C24])
    def test_an_index_in_any_order_makes_the_sorted_table(self, name):
        # the index with its rows reversed and its values renumbered from the
        # end: the constructor sorts it, renumbers it by first appearance and
        # makes the rows of its own values
        t = build_character_table(parse_group_spec(name))
        last = len(t.values) - 1
        cells = [[last - c for c in row] for row in reversed(t.cells)]
        table = CharacterTable(t.group, index=(t.values[::-1], cells))
        assert table.cells == t.cells
        assert list(map(id, table.values)) == list(map(id, t.values))
        assert table.rows == t.rows and table.degrees == t.degrees
        assert_value_index(table)

    def test_equal_values_that_are_distinct_objects_are_indexed_apart(self):
        # ClassFunction makes a value of each int, so the four 1s are four
        # objects; a row made of another row's objects shares their cells
        g = parse_group_spec("C2")
        first = ClassFunction(g, [1, 1])
        second = ClassFunction(g, [1, -1])
        table = CharacterTable(g, [second, first])
        assert_value_index(table)
        assert len(table.values) == 4
        shared = CharacterTable(g, [first, ClassFunction(g, first.values)])
        assert_value_index(shared)
        assert len(shared.values) == 2
        assert shared.cells[0] == shared.cells[1]

    def test_a_tie_of_floats_is_broken_by_the_held_form(self):
        # 1 and 1 + 10^-12 round alike, so the rows tie on every float;
        # their held forms order them, whichever comes first
        g = parse_group_spec("C2")
        near = [1, 1 + Fraction(1, 10**12)]
        for rows in ([[1, 1], near], [near, [1, 1]]):
            table = CharacterTable(g, [ClassFunction(g, r) for r in rows])
            assert [list(r.values) for r in table.rows] == [[1, 1], near]
            assert_value_index(table)

    def test_held_forms_are_read_after_every_float(self):
        # the rows tie at class 2 by their floats but not by their held
        # forms; class 3 orders them, larger values first, as documented
        g = parse_group_spec("C3")
        rows = [[1, 1, 2], [1, 1 + Fraction(1, 10**12), 3], [1, 1, 1]]
        table = CharacterTable(g, [ClassFunction(g, r) for r in rows])
        assert [list(r.values) for r in table.rows] == [rows[1], rows[0], rows[2]]
        assert sorted(table.rows, key=lambda r: documented_row_key(r.values)) == table.rows
