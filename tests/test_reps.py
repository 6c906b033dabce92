import hashlib
import itertools
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from chartab.classfun import is_irreducible, trivial_character
from chartab.cyclo import Cyclo, dot, from_rational
from chartab.permgroup import GroupMismatchError, ParseError, Perm, PermGroup, parse_group_spec
from chartab.reps import (
    InconsistentRepError,
    MatrixRep,
    builtin_rep,
    character_of,
    check_matrix_orthogonality,
    mat_det,
    mat_identity,
    mat_mul,
    mat_trace,
    permutation_character,
    standard_character,
)
from chartab.tablegen import build_character_table, linear_characters

from conftest import class_index_of, count_perm_products, ratio, zeta


@pytest.fixture(scope="module")
def q8_rep():
    return builtin_rep("q8-2dim").extend_to_group()


def count_inversions(monkeypatch):
    """Count the `Perm.inv` calls made from now on, in a one-item list."""
    count = [0]
    inv = Perm.inv

    def counted(p):
        count[0] += 1
        return inv(p)

    monkeypatch.setattr(Perm, "inv", counted)
    return count


class TestExtension:
    def test_q8_extends_to_all_elements(self, q8_rep):
        assert len(q8_rep.full_images) == 8

    def test_d4_rotation_rep(self):
        rep = builtin_rep("dihedral-rot:4:1").extend_to_group()
        assert len(rep.full_images) == 8

    def test_inconsistent_images_rejected(self):
        g = parse_group_spec("C2")
        rep = MatrixRep(g, [((from_rational(2),),)])
        with pytest.raises(InconsistentRepError):
            rep.extend_to_group()

    def test_singular_image_rejected(self):
        g = parse_group_spec("C2")
        with pytest.raises(InconsistentRepError):
            MatrixRep(g, [((Cyclo.zero(),),)])

    @pytest.mark.parametrize("images, match", [
        ([], "^expected 1 generator images, got 0$"),
        ([((1, 0),)], "^generator images must be square of equal size$"),
        ([((1, 0), (0,))], "^generator images must be square of equal size$"),
        ([()], "^generator images must have dimension at least 1$"),
    ])
    def test_malformed_images_rejected(self, images, match):
        with pytest.raises(ValueError, match=match):
            MatrixRep(parse_group_spec("C2"), images)

    @pytest.mark.parametrize("points", [
        [1, zeta(5), zeta(5, 3)],
        [2, zeta(12), ratio(1, 2), zeta(12, 7) + zeta(3)],
    ])
    def test_det_of_a_vandermonde_matrix(self, points):
        # det (x_i^j) = prod_{i < j} (x_j - x_i), in dimensions 3 and 4
        n = len(points)
        vandermonde = tuple(tuple(x ** j for j in range(n)) for x in points)
        expected = from_rational(1)
        for i in range(n):
            for j in range(i + 1, n):
                expected = expected * (points[j] - points[i])
        assert not expected.is_rational()
        assert mat_det(vandermonde) == expected

    def test_singular_image_of_dimension_three_rejected(self):
        # the third row is the sum of the first two
        z = zeta(5)
        rows = [[1, z, 0], [z, 2, 1], [1 + z, 2 + z, 1]]
        with pytest.raises(InconsistentRepError, match="^generator image is singular$"):
            MatrixRep(parse_group_spec("C2"), [rows])

    def test_homomorphism_on_random_pairs(self, q8_rep):
        rng = random.Random(3)
        g = q8_rep.group
        for _ in range(200):
            s = rng.choice(g.elements)
            t = rng.choice(g.elements)
            product_image = mat_mul(q8_rep.image(s), q8_rep.image(t))
            direct = q8_rep.image(s * t)
            assert all(
                a == b
                for ra, rb in zip(product_image, direct)
                for a, b in zip(ra, rb)
            )

    def test_image_of_an_element_outside_the_group_is_refused(self):
        rep = builtin_rep("dihedral-rot:3:1")
        with pytest.raises(GroupMismatchError, match=r"^element \(0,1\) not in group$"):
            rep.image(Perm((1, 0, 2, 3)))

    @pytest.mark.parametrize("name", ["S1", "C1", "A2"])
    def test_trivial_rep_of_a_trivial_group(self, name):
        # degree 1, where a gather is `tuple`, or no generators at all
        g = parse_group_spec(name)
        rep = MatrixRep(g, [((1,),)] * len(g.generators))
        assert repr(check_matrix_orthogonality(rep, rep)) == "OrthogonalityReport(1 pairings, ok)"
        assert rep.full_images == {Perm.identity(g.degree): ((from_rational(1),),)}

    def test_identity_maps_to_identity(self, q8_rep):
        from chartab.permgroup import Perm

        image = q8_rep.image(Perm.identity(8))
        assert image[0][0] == 1 and image[1][1] == 1
        assert image[0][1].is_zero() and image[1][0].is_zero()


class TestCharacterOf:
    def test_q8_character(self, q8_rep):
        chi = character_of(q8_rep)
        # canonical classes: identity, the central involution, then i/j/k
        assert [v.exact_str() for v in chi.values] == ["2", "-2", "0", "0", "0"]
        assert is_irreducible(chi)

    def test_trivial_rep(self):
        g = parse_group_spec("S3")
        rep = MatrixRep(g, [((Cyclo.one(),),)] * len(g.generators))
        chi = character_of(rep)
        assert chi == trivial_character(g)

    def test_d4_rotation_character(self):
        rep = builtin_rep("dihedral-rot:4:1")
        chi = character_of(rep)
        assert [v.exact_str() for v in chi.values] == ["2", "-2", "0", "0", "0"]

    def test_trace_constant_on_classes(self, q8_rep):
        data = q8_rep.group.conjugacy_classes()
        for members in data.members:
            traces = {mat_trace(q8_rep.image(m)).exact_str() for m in members}
            assert len(traces) == 1

    def test_d5_rotation_irreducible(self):
        for r in (1, 2):
            chi = character_of(builtin_rep(f"dihedral-rot:5:{r}"))
            assert is_irreducible(chi)


class TestPermutationCharacters:
    def test_s4_standard(self):
        g = parse_group_spec("S4")
        chi = standard_character(g)
        expected = {
            "()": 3, "(0,1)": 1, "(0,1)(2,3)": -1, "(0,1,2)": 0, "(0,1,2,3)": -1,
        }
        for rep_text, val in expected.items():
            assert chi.values[class_index_of(g, rep_text)] == val

    def test_s5_standard(self):
        g = parse_group_spec("S5")
        chi = standard_character(g)
        expected = {
            "()": 4, "(0,1)": 2, "(0,1,2)": 1, "(0,1)(2,3)": 0,
            "(0,1,2,3)": 0, "(0,1)(2,3,4)": -1, "(0,1,2,3,4)": -1,
        }
        for rep_text, val in expected.items():
            assert chi.values[class_index_of(g, rep_text)] == val

    def test_identity_value(self):
        for name in ["S3", "S4", "S5"]:
            g = parse_group_spec(name)
            assert standard_character(g).values[0] == g.degree - 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_standard_irreducible(self, n):
        assert is_irreducible(standard_character(parse_group_spec(f"S{n}")))

    @pytest.mark.parametrize("name", ["S3", "S4", "S5", "A4", "A5"])
    def test_permutation_splits_as_trivial_plus_standard(self, name):
        g = parse_group_spec(name)
        assert permutation_character(g) == trivial_character(g) + standard_character(g)


def linear_rep_of(group, chi):
    """1x1 matrix representation carrying a linear character."""
    data = group.conjugacy_classes()
    images = [
        ((chi.values[data.member_index[gen]],),) for gen in group.generators
    ]
    return MatrixRep(group, images)


class TestMatrixOrthogonality:
    def test_q8_self_pairings(self, q8_rep):
        report = check_matrix_orthogonality(q8_rep, q8_rep)
        assert report.ok
        assert report.checked == 16
        assert report.dim == 2

    def test_q8_cross_with_linear(self, q8_rep):
        g = q8_rep.group
        for chi in linear_characters(g):
            if all(v == 1 for v in chi.values):
                continue  # trivial character; not the cross case
            lin_rep = linear_rep_of(g, chi).extend_to_group()
            report = check_matrix_orthogonality(q8_rep, lin_rep)
            assert report.ok
            assert report.checked == 4

    def test_trivial_rep_on_c3(self):
        g = parse_group_spec("C3")
        rep = MatrixRep(g, [((Cyclo.one(),),)]).extend_to_group()
        report = check_matrix_orthogonality(rep, rep)
        assert report.ok
        assert report.checked == 1

    def test_violations_reported_for_reducible(self):
        # the 2-dim permutation rep of C2 is reducible, so the theorem's
        # conclusion must fail somewhere and be reported
        g = parse_group_spec("C2")
        swap = (
            (Cyclo.zero(), Cyclo.one()),
            (Cyclo.one(), Cyclo.zero()),
        )
        rep = MatrixRep(g, [swap]).extend_to_group()
        report = check_matrix_orthogonality(rep, rep)
        assert not report.ok
        assert report.violations

    @pytest.mark.parametrize("copies", [1, 2])
    def test_a_pairing_sum_of_the_group_order_is_told_apart_from_zero(self, copies):
        # the 2-dim trivial rep of the cyclic group of order 255, passed as
        # one object or as two with equal images: one rep.  Its pairing
        # (0, 0, 1, 1) is (1/255) sum_t 1 = 1 where 0 is expected, and
        # n1 sum_t 1 = 2 |G| = 510 is 0 modulo 255 = 2^8 - 1, the modulus
        # that a bound without its |G| factor, 2 A'^2 + D^2 = 33, would choose
        g = parse_group_spec("perm:25:(0,1,2)(3,4,5,6,7)"
                             "(8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24)")
        rep1, rep2 = (MatrixRep(g, [((1, 0), (0, 1))]) for _ in range(2))
        report = check_matrix_orthogonality(rep1, rep2 if copies == 2 else rep1)
        half = Fraction(1, 2)
        assert report.same_rep
        assert report.violations == [
            ((0, 0, 0, 0), 1, half), ((0, 0, 1, 1), 1, 0), ((0, 1, 1, 0), 0, half),
            ((1, 0, 0, 1), 0, half), ((1, 1, 0, 0), 1, 0), ((1, 1, 1, 1), 1, half)]

    def test_equal_images_held_as_two_objects_are_one_rep(self, monkeypatch):
        # two builtin_rep calls make two objects with equal images, which
        # pair as one object passed twice: in one ring, with the self
        # pairings 1/dim expected
        from chartab import reps

        rings = []
        ring = reps._ring

        def counting(group_reps, *args):
            rings.append(len(group_reps))
            return ring(group_reps, *args)

        monkeypatch.setattr(reps, "_ring", counting)
        one, two = builtin_rep("dihedral-rot:5:1"), builtin_rep("dihedral-rot:5:1")
        assert one is not two and one.images == two.images
        for rep2 in (one, two):
            report = check_matrix_orthogonality(one, rep2)
            assert repr(report) == "OrthogonalityReport(16 pairings, ok)"
            assert report.same_rep
        assert rings == [1, 1]

    def test_reps_with_other_images_are_two_reps(self):
        # rotation by 2 pi r / 5 for r = 1, 2 and 4: r = 2 is another
        # irreducible, so every pairing is 0; r = 4 is equivalent to r = 1
        # but has other images, so it is a second rep and the 4 pairings
        # that an equivalence makes nonzero are violations
        one = builtin_rep("dihedral-rot:5:1")
        for r, state in [(2, "ok"), (4, "4 violations")]:
            report = check_matrix_orthogonality(one, builtin_rep(f"dihedral-rot:5:{r}"))
            assert repr(report) == f"OrthogonalityReport(16 pairings, {state})"
            assert not report.same_rep

    def test_group_mismatch(self, q8_rep):
        g = parse_group_spec("C3")
        other = MatrixRep(g, [((Cyclo.one(),),)]).extend_to_group()
        with pytest.raises(GroupMismatchError):
            check_matrix_orthogonality(q8_rep, other)

    def test_a_group_of_the_same_degree_and_other_generators_is_refused(self):
        # S3 and C3 both act on 3 points and have 3 classes: only their
        # generators tell them apart
        s3 = MatrixRep(parse_group_spec("S3"), [((Cyclo.one(),),)] * 2)
        c3 = MatrixRep(parse_group_spec("C3"), [((Cyclo.one(),),)])
        with pytest.raises(GroupMismatchError, match="^representations of different groups$"):
            check_matrix_orthogonality(s3, c3)

    def test_reps_of_one_group_survive_the_parse_cache_dropping_it(self):
        # builtin_rep parses D5 itself; the 35 other builtin specs push it
        # out of the parse cache between the two calls, so the second rep
        # holds a new group object of the same degree and generators
        a = builtin_rep("dihedral-rot:5:1")
        for spec in (f + str(n) for f in "SACD" for n in range(1, 10)):
            if spec != "D5":
                parse_group_spec(spec)
        b = builtin_rep("dihedral-rot:5:2")
        assert a.group is not b.group
        assert repr(check_matrix_orthogonality(a, b)) == "OrthogonalityReport(16 pairings, ok)"


class TestBuiltinReps:
    def test_unknown_name(self):
        with pytest.raises(ParseError):
            builtin_rep("nonsense")

    def test_dihedral_needs_three(self):
        with pytest.raises(ParseError, match="3 <= n <= 9"):
            builtin_rep("dihedral-rot:2:1")

    def test_dihedral_stops_at_nine(self):
        # D<n> is builtin for n <= 9 only, so the error names that range,
        # not the group spec D10
        with pytest.raises(ParseError, match="3 <= n <= 9"):
            builtin_rep("dihedral-rot:10:1")

    def test_dihedral_relations(self):
        rep = builtin_rep("dihedral-rot:6:1")
        rot, flip = rep.images
        power = rot
        for _ in range(5):
            power = mat_mul(power, rot)
        identity = ((Cyclo.one(), Cyclo.zero()), (Cyclo.zero(), Cyclo.one()))
        assert all(
            a == b for ra, rb in zip(power, identity) for a, b in zip(ra, rb)
        )
        assert all(
            a == b
            for ra, rb in zip(mat_mul(flip, flip), identity)
            for a, b in zip(ra, rb)
        )

    def test_d6_rotation_character_against_table(self):
        g = parse_group_spec("D6")
        table = build_character_table(g)
        chi = character_of(builtin_rep("dihedral-rot:6:1"))
        assert any(chi == row for row in table.rows)


def _images_text(name):
    rep = builtin_rep(name).extend_to_group()
    return "".join(f"{el!r} {mat!r}\n" for el, mat in rep.full_images.items())


# the pinned cases are named by their first parameter alone, so a re-pinned
# digest keeps its test's id
PINNED_IMAGES = [
    ("dihedral-rot:3", "8660ab49505edb95a4f14c1c78558934b9f42342df1da6df36b92485d4027f28"),
    ("dihedral-rot:4", "0bae66a309b4adb9403461812f7f23634dc39d6b2f16bcd9314ec9c955079e75"),
    ("dihedral-rot:5", "60183f89d7724d13883493f541f0bc6a97e033ee21d97b6fd45133b459505036"),
    ("dihedral-rot:6", "7210b7dc539ebe7a7915af1c90434b9cb0b2857447a0d3ef6ac0304a0df2b9d3"),
    ("dihedral-rot:7", "cff465bb819e879f03775c9fcc222aa7dbf67e4c130244ad10309929d0b1ecea"),
    ("dihedral-rot:8", "2371ea4ae60a2cde06ada4a643cd072ba8615352929cbae9bb4b5d1d7c0031fc"),
    ("dihedral-rot:9", "603f61d66ca24c3b93d3110b070f1b35e20f3dc3eab006539d83f38c27582bda"),
    ("q8-2dim", "9ab6b8db84da3570545c5e2606a4105f0992fc38547ddc440eb21dc9ab80df6e"),
]


@pytest.mark.parametrize("name, digest", PINNED_IMAGES, ids=[name for name, _ in PINNED_IMAGES])
def test_full_images_are_pinned(name, digest):
    # sha256 of the repr of every element's image, for dihedral-rot:n:r over
    # r = 0..n-1: entries with denominator 2 in Q(zeta_n) and Q(zeta_4n), so
    # a change in how Cyclo multiplies or reduces must not move a value or
    # the order it is held at
    if name == "q8-2dim":
        text = _images_text(name)
    else:
        n = int(name.split(":")[1])
        text = "".join(_images_text(f"{name}:{r}") for r in range(n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(3, 10))
def test_orthogonality_report_is_pinned(n):
    # rotation by 2 pi / n and by -2 pi / n: equivalent representations held
    # as two objects, so the report lists the pairings that are not 0
    rep1 = builtin_rep(f"dihedral-rot:{n}:1")
    report = check_matrix_orthogonality(rep1, builtin_rep(f"dihedral-rot:{n}:{n - 1}"))
    half, zero = "Cyclo(1, '1/2')", "Cyclo(1, '0')"
    assert f"{report!r} {report.violations!r}" == (
        "OrthogonalityReport(16 pairings, 4 violations) "
        f"[((0, 0, 1, 1), {half}, {zero}), ((0, 1, 0, 1), {half}, {zero}), "
        f"((1, 0, 1, 0), {half}, {zero}), ((1, 1, 0, 0), {half}, {zero})]"
    )


PINNED_REPORTS = [
    (3, "cb7f8ff2aba6757c0a179808e0965ac4fffb2c017ce632ce920c293faf249151"),
    (4, "fa8404b78c81391deee1cc286b21d2c396119cc9ab81ee105f67328c341c570d"),
    (5, "46d540db652f48a259ef9ae72489549ad4dbebd8c2f7df3df984aa2b92377f30"),
    (6, "2cf53ff862eded8c38a4ecd037e5036af021cdd706d3a221c6ca34d43617c47e"),
    (7, "855504df0b93963ec3c262efa5c42c21ab7f04d024d6f4ab259036df884b7dce"),
    (8, "d667fcf9c7d4b2d8b941d2c928dafda54c08589da96c39635b3d1c15313a7ec4"),
    (9, "e86386920a9d3bcce89f1153b634a429556469a4696ab3ebfbf246264922898e"),
]


@pytest.mark.parametrize("n, digest", PINNED_REPORTS, ids=[str(n) for n, _ in PINNED_REPORTS])
def test_orthogonality_reports_over_all_rotations_are_pinned(n, digest):
    # sha256 of every report, with its violations, of dihedral-rot:n:r1
    # against dihedral-rot:n:r2 for r1, r2 in 0..n-1, rep2 the same object
    # as rep1 when r1 == r2; r = 0 and 2r = 0 (mod n) give reducible reps,
    # so the violations and their exact values are pinned too
    reps = [builtin_rep(f"dihedral-rot:{n}:{r}") for r in range(n)]
    reports = [check_matrix_orthogonality(rep1, rep2) for rep1 in reps for rep2 in reps]
    text = "".join(f"{report!r} {report.violations!r}\n" for report in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("reverse, text", [
    (False, "images are not a homomorphism at element (0,4,3,2,1)"),
    (True, "images are not a homomorphism at element ()"),
])
def test_first_failing_edge_is_pinned(reverse, text):
    # the rotation by 2 pi / 7 does not have order 5; the first Cayley edge
    # that fails, in the breadth-first order of D5's elements and of its
    # generators, names the element
    images = builtin_rep("dihedral-rot:7:1").images
    rep = MatrixRep(parse_group_spec("D5"), images[::-1] if reverse else images)
    with pytest.raises(InconsistentRepError) as info:
        rep.extend_to_group()
    assert str(info.value) == text


# -- the residue ring against exact arithmetic ----------------------------------


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def permutation_matrix(s):
    # X e_i = e_s(i), so that X_(x * s) = X_x X_s
    return [[int(s[j] == i) for j in range(len(s))] for i in range(len(s))]


def conjugated(group, images, p):
    """The representation s -> P^-1 X_s P over Q, X_s the integer images."""
    n = len(p)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(p)]
    for c in range(n):  # Gauss-Jordan on [P | 1]
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    inverse = [row[n:] for row in rows]

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    return MatrixRep(group, [times(times(inverse, x), p) for x in images])


S3 = parse_group_spec("S3")
# P^-1 X P has generator denominators with lcm 4, and one element's image
# has denominator 8
S3_PAST_THE_GENERATORS_DENOMINATORS = ((2, 2, -1), (2, -2, 0), (0, 0, 2))
# det P = -1: every image is integral, the generators' coefficients are at
# most 3 in absolute value and one element's reach 5
S3_PAST_THE_GENERATORS_COEFFICIENTS = ((-2, -2, -1), (-2, -1, -1), (-1, 0, -1))
# the standard representation of S3 on the basis P, det P = -3: D = 3, and
# 3 divides M = 2^W - 1 for the even W of both its rings
S3_STANDARD = ([[0, 1], [1, 0]], [[0, -1], [1, -1]])
S3_STANDARD_OVER_THIRDS = ((1, 1), (1, -2))


def s3_permutation_rep(p):
    return conjugated(S3, [permutation_matrix(s) for s in S3.generators], p)


def oracle_images(rep):
    """The exact algorithm, kept as an oracle: exact images along the
    breadth-first discovery tree, and every other Cayley edge an exact
    matrix equation, the first that fails in enumeration order named."""
    group = rep.group
    full = {Perm.identity(group.degree): mat_identity(rep.dim)}
    edges = []
    for el in group.elements:
        for gen, image in zip(group.generators, rep.images):
            prod = el * gen
            if prod in full:
                edges.append((el, image, prod))
            else:
                full[prod] = mat_mul(full[el], image)
    for el, image, prod in edges:
        if mat_mul(full[el], image) != full[prod]:
            raise InconsistentRepError(
                f"images are not a homomorphism at element {prod.cycle_string()}")
    return full


def oracle_report(rep1, rep2):
    """The report's text, each pairing an exact `dot` over the oracle's images."""
    full1, full2 = oracle_images(rep1), oracle_images(rep2)
    elements = rep1.group.elements
    inverses = [t.inv() for t in elements]
    n1, n2 = rep1.dim, rep2.dim
    violations = []
    for i, l, m, j in itertools.product(range(n1), range(n1), range(n2), range(n2)):
        diagonal = (rep1 is rep2 or rep1.images == rep2.images) and i == j and l == m
        value = Fraction(1, len(elements)) * dot([full1[t][i][l] for t in elements],
                                                 [full2[u][m][j] for u in inverses])
        expected = from_rational(Fraction(1, n1)) if diagonal else Cyclo.zero()
        if value != expected:
            violations.append(((i, l, m, j), value, expected))
    state = f"{len(violations)} violations" if violations else "ok"
    return f"OrthogonalityReport({n1 * n1 * n2 * n2} pairings, {state}) {violations!r}"


def report_text(rep1, rep2):
    report = check_matrix_orthogonality(rep1, rep2)
    return f"{report!r} {report.violations!r}"


def trivial_pair_of_order_255():
    # the 2-dim trivial rep, held as two objects with equal images: one
    # rep, whose pairing (0, 0, 1, 1) sums n1 |G| = 510 where 0 is expected;
    # 255 = 2^8 - 1 is the modulus that the pairing bound without its |G|
    # factor, 2 A'^2 + D^2 = 33 with A' = 4, would give the ring
    g = parse_group_spec("perm:25:(0,1,2)(3,4,5,6,7)"
                         "(8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24)")
    return tuple(MatrixRep(g, [((1, 0), (0, 1))]) for _ in range(2))


def same_rep_twice(rep):
    return rep, rep


ORACLE_PAIRS = {
    "q8-2dim": lambda: same_rep_twice(builtin_rep("q8-2dim")),
    "s3-denominators-past-the-generators": lambda: same_rep_twice(
        s3_permutation_rep(S3_PAST_THE_GENERATORS_DENOMINATORS)),
    "s3-coefficients-past-the-generators": lambda: same_rep_twice(
        s3_permutation_rep(S3_PAST_THE_GENERATORS_COEFFICIENTS)),
    "s3-standard-over-thirds": lambda: same_rep_twice(
        conjugated(S3, S3_STANDARD, S3_STANDARD_OVER_THIRDS)),
    "trivial-pair-of-order-255": trivial_pair_of_order_255,
}


class TestExactOracle:
    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    def test_report_matches_the_exact_oracle(self, name):
        rep1, rep2 = ORACLE_PAIRS[name]()
        assert report_text(rep1, rep2) == oracle_report(*ORACLE_PAIRS[name]())

    @pytest.mark.parametrize("n", range(3, 10))
    def test_dihedral_reports_match_the_exact_oracle(self, n):
        # every pair dihedral-rot:n:r1, dihedral-rot:n:r2, one object when
        # r1 == r2, reducible reps (r = 0, 2r = 0 mod n) among them
        reps = [builtin_rep(f"dihedral-rot:{n}:{r}") for r in range(n)]
        for rep1, rep2 in itertools.product(reps, repeat=2):
            assert report_text(rep1, rep2) == oracle_report(rep1, rep2), (n, rep1, rep2)

    @pytest.mark.parametrize("group, images", [
        pytest.param("D5", builtin_rep("dihedral-rot:7:1").images, id="rotation-of-D7-on-D5"),
        pytest.param("D5", builtin_rep("dihedral-rot:7:1").images[::-1],
                     id="rotation-of-D7-on-D5-reversed"),
        # rho(s)^2 - 1 = 32^2 - 1 = 2^10 - 1, the modulus of the ring guessed
        # from the generator: D = 1 and A_s = 32, and the guess A' = 4
        # gives D A' + d A' A_s = 132, W = 10.  The residue 32 fails the
        # range test, and the ring read off the exact images tells the edge
        # apart from 0
        pytest.param("C2", [((32,),)], id="edge-sum-is-the-guessed-modulus"),
        # D = 3 and the guessed ring's M = 2^8 - 1: D has no inverse mod M
        pytest.param("C2", [((Fraction(1, 3),),)], id="a-third-on-c2"),
    ])
    def test_first_failing_element_matches_the_exact_oracle(self, group, images):
        g = parse_group_spec(group)
        with pytest.raises(InconsistentRepError) as ours:
            MatrixRep(g, images).extend_to_group()
        with pytest.raises(InconsistentRepError) as theirs:
            oracle_images(MatrixRep(g, images))
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("name", ["q8-2dim", *(f"dihedral-rot:{n}:1" for n in range(3, 10))])
    def test_an_ok_report_makes_no_exact_image(self, name):
        rep = builtin_rep(name)
        assert check_matrix_orthogonality(rep, rep).ok
        assert rep._exact is None


class TestCayleyGraphOfTheGroup:
    @pytest.mark.parametrize("name", ["q8-2dim", "dihedral-rot:9:2"])
    def test_extension_inverts_no_element_and_sweeps_no_class(self, name, monkeypatch):
        # a group of its own, not enumerated yet: the walk reads the columns
        # of its enumeration and needs no inverse
        builtin = builtin_rep(name)
        g = PermGroup(builtin.group.degree, builtin.group.generators)
        rep = MatrixRep(g, builtin.images)
        inversions = count_inversions(monkeypatch)
        rep.extend_to_group()
        assert inversions == [0]
        assert g._class_data is None

    def test_the_exact_fallback_builds_no_second_graph(self, monkeypatch):
        g = PermGroup(S3.degree, S3.generators)
        rep = conjugated(g, [permutation_matrix(s) for s in S3.generators],
                         S3_PAST_THE_GENERATORS_DENOMINATORS)
        g.enumerate()
        products, inversions = count_perm_products(monkeypatch), count_inversions(monkeypatch)
        rep.extend_to_group()
        assert rep._exact is not None  # the guessed ring failed
        assert products == [0] and inversions == [0]


class TestFallback:
    def test_images_whose_denominators_pass_the_generators(self):
        # no coefficient bound holds for D rho with D = 4, the generators'
        # lcm: the residues of the image with denominator 8 fail the range
        # test at every k, so the ring is built once more from exact images
        rep = s3_permutation_rep(S3_PAST_THE_GENERATORS_DENOMINATORS)
        assert max(v.den for m in rep.images for row in m for v in row) == 4
        with time_limit(1):
            report = check_matrix_orthogonality(rep, rep)
            chi = character_of(rep)
        assert max(v.den for m in rep.full_images.values() for row in m for v in row) == 8
        assert repr(report) == "OrthogonalityReport(81 pairings, 49 violations)"
        text = f"{report!r} {report.violations!r}"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9b597b13b27ac2c929b280302c0c6803b9121404dc1b570618fcabb4b6569631")
        assert repr(chi) == "ClassFunction[3, 0, 1]"

    def test_a_group_with_no_generators(self):
        rep = MatrixRep(parse_group_spec("S3").subgroup([]), [])
        assert repr(check_matrix_orthogonality(rep, rep)) == "OrthogonalityReport(1 pairings, ok)"
        assert repr(character_of(rep)) == "ClassFunction[1]"
