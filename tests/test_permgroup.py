import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartab.permgroup import (
    GroupMismatchError,
    ParseError,
    Perm,
    PermGroup,
    ResourceCapError,
    parse_group_spec,
)

from conftest import BUILTIN_NAMES, BUILTINS_LE_24, count_perm_products, perm_of


def brute_force_closure(generator_images, degree):
    """Independent closure oracle on raw image tuples."""
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for gen in generator_images:
                prod = tuple(el[gen[i]] for i in range(degree))
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return elements


# relabeled D4xS3, S4xS3 and S4xD4: no factor sits on its natural points
RELABELED_PRODUCTS = [
    "perm:7:(1,4,2,5);(4,5);(0,3);(0,3,6)",
    "perm:7:(2,5);(1,4,2,5);(0,3);(0,3,6)",
    "perm:8:(0,5);(0,3,6,5);(1,4,7,2);(2,4)",
]
# a relabeled D4xD4xC3: five generators, 75 classes, derived series [4, 1]
D4_X_D4_X_C3 = "perm:11:(1,10,3,9);(9,10);(0,8,4,7);(0,4);(2,5,6)"
NORMAL_SUBGROUP_GROUPS = (BUILTINS_LE_24 + ["A5", "S5"] + RELABELED_PRODUCTS
                          + [D4_X_D4_X_C3])


def commutator_closure(elements, degree):
    """Closure of all-pair commutators of a list of elements."""
    comms = {a.inv() * b.inv() * a * b for a in elements for b in elements}
    return brute_force_closure([c.images for c in comms], degree)


def check_series_by_commutator_oracle(g, series):
    """Each term is the commutator subgroup of its predecessor, by the
    all-pairs commutator oracle; the series stops at order 1 or at a term
    equal to its own commutator subgroup."""
    prev = g.elements
    for term in series:
        assert commutator_closure(prev, g.degree) == {p.images for p in term.elements}
        assert term.order == len(set(term.elements))
        prev = term.elements
    orders = [term.order for term in series]
    assert orders == sorted(set(orders), reverse=True)
    last = series[-1]
    if last.order > 1:
        assert commutator_closure(last.elements, g.degree) == {
            p.images for p in last.elements
        }


def parity(images):
    """Sign of a permutation by counting inversions."""
    inv = sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )
    return -1 if inv % 2 else 1


class TestPerm:
    def test_identity(self):
        e = Perm.identity(4)
        assert e == (0, 1, 2, 3)
        assert e.cycle_string() == "()"

    def test_composition_order(self):
        a = Perm.from_cycles([[0, 1]], 3)
        b = Perm.from_cycles([[1, 2]], 3)
        # (a * b)(i) = a(b(i))
        assert (a * b).images == (1, 2, 0)

    def test_inverse_and_power(self):
        p = Perm.from_cycles([[0, 1, 2, 3]], 4)
        assert p * p.inv() == Perm.identity(4)
        assert p ** 4 == Perm.identity(4)
        assert p ** -1 == p.inv()
        assert p.order() == 4

    @pytest.mark.parametrize("k", range(6))
    def test_power_of_two_squares_to_its_top_bit(self, monkeypatch, k):
        p = Perm.from_cycles([list(range(31))], 31)
        count = count_perm_products(monkeypatch)
        assert p ** (2 ** k) == Perm.from_cycles([[(2 ** k * i) % 31 for i in range(31)]], 31)
        # k squarings and one product into the identity; a square past the
        # top bit made k + 2
        assert count[0] == k + 1

    def test_cycles_round_trip(self):
        p = Perm.from_cycles([[0, 2, 4], [1, 3]], 5)
        assert p.cycle_string() == "(0,2,4)(1,3)"
        assert p.order() == 6


def compose(p, q):
    """(p q)(i) = p(q(i)) on plain image tuples."""
    return tuple(p[i] for i in q)


@st.composite
def perm_pairs(draw):
    """Two permutations of one degree in 1..32 and an exponent."""
    degree = draw(st.integers(1, 32))
    p, q = (Perm(draw(st.permutations(range(degree)))) for _ in range(2))
    return p, q, draw(st.integers(-40, 40))


class TestProductPrimitive:
    # every product of the library is a gather from `Perm.right_mul`; at
    # degree 1 a gather at one point would return a bare int
    @settings(max_examples=300, deadline=None)
    @given(perm_pairs())
    def test_against_composition(self, pq):
        p, q, n = pq
        identity = tuple(range(len(p)))
        assert p.right_mul()(q) == compose(q, p)
        assert type(p.right_mul()(q)) is tuple
        product = p * q
        assert type(product) is Perm
        assert all(product(i) == p(q(i)) for i in range(len(p)))
        assert p * p.inv() == p.inv() * p == identity
        power = identity
        for _ in range(abs(n)):
            power = compose(power, p if n >= 0 else p.inv())
        assert p ** n == power
        assert type(p ** n) is Perm

    def test_counting_spy_sees_every_gather(self, monkeypatch):
        # enumeration makes one product per element and generator, each a
        # gather; the work-bound tests rest on the spy counting them
        s5 = parse_group_spec("S5")
        g = PermGroup(s5.degree, s5.generators)
        count = count_perm_products(monkeypatch)
        g.enumerate()
        assert count[0] == 120 * 2
        count[0] = 0
        Perm.from_cycles([[0, 1, 2]], 5) * Perm.from_cycles([[0, 1]], 5)
        assert count[0] == 1


class TestParse:
    def test_s3_order(self):
        assert parse_group_spec("S3").order == 6

    def test_s5_order(self):
        assert parse_group_spec("S5").order == math.factorial(5) == 120

    def test_klein_four_from_cycles(self):
        g = parse_group_spec("perm:4:(0,1)(2,3);(0,2)(1,3)")
        oracle = brute_force_closure([(1, 0, 3, 2), (2, 3, 0, 1)], 4)
        assert g.order == len(oracle) == 4

    @pytest.mark.parametrize(
        "spec,order",
        [("C1", 1), ("C6", 6), ("A3", 3), ("A4", 12), ("A5", 60),
         ("D1", 2), ("D2", 4), ("D3", 6), ("D4", 8), ("D6", 12), ("Q8", 8),
         ("S1", 1), ("S2", 2), ("S4", 24)],
    )
    def test_builtin_orders(self, spec, order):
        assert parse_group_spec(spec).order == order

    @pytest.mark.parametrize(
        "bad",
        ["X3", "S0", "S10", "perm:4", "perm:4:(0,1", "perm:4:(0,4)",
         "perm:4:(0,0)", "perm:x:(0,1)", "perm:33:(0,1)", "Q9", "",
         # an empty cycle list, an empty generator, a point that is no int
         "perm:4:", "perm:4:(0,1);", "perm:4:(0,a)"],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_group_spec(bad)

    @pytest.mark.parametrize("degree, gens, match", [
        (0, [], r"^degree 0 outside \[1, 32\]$"),
        (33, [], r"^degree 33 outside \[1, 32\]$"),
        (3, [Perm((1, 0))], "^generator degree does not match group degree$"),
        (3, [Perm((0, 0, 1))], r"^generator \(0, 0, 1\) is not a bijection$"),
    ])
    def test_constructor_rejects(self, degree, gens, match):
        with pytest.raises(ParseError, match=match):
            PermGroup(degree, gens)

    def test_out_of_range_degree_is_rejected_before_any_cycle(self, monkeypatch):
        # each cycle is a list of `degree` images, so the degree is checked
        # before the first one is built
        def spy(cycles, degree):
            raise AssertionError(f"Perm.from_cycles called with degree {degree}")

        monkeypatch.setattr(Perm, "from_cycles", staticmethod(spy))
        with pytest.raises(ParseError, match="outside"):
            parse_group_spec("perm:1000000:()")

    def test_a_group_is_its_degree_and_generators(self):
        s3 = parse_group_spec("S3")
        for same in (parse_group_spec("perm:3:(0,1);(0,1,2)"), PermGroup(3, s3.generators),
                     s3.subgroup(list(s3.generators))):
            assert same is not s3
            assert same == s3 and hash(same) == hash(s3)

    @pytest.mark.parametrize("left, right", [
        ("S3", "C3"),  # one degree, other generators
        ("S1", "A2"),  # no generators, other degrees
        ("S3", "perm:3:(0,1,2);(0,1)"),  # S3's generators in another order
    ])
    def test_another_degree_or_generator_tuple_is_another_group(self, left, right):
        assert parse_group_spec(left) != parse_group_spec(right)

    def test_parse_cache_is_bounded(self):
        from chartab.permgroup import PARSE_CACHE_SIZE, _parse_group_spec_cached

        specs = [f"perm:32:({a},{b})" for a in range(2) for b in range(a + 1, 32)]
        assert len(specs) > PARSE_CACHE_SIZE
        for spec in specs:
            parse_group_spec(spec)
        info = _parse_group_spec_cached.cache_info()
        assert info.maxsize == PARSE_CACHE_SIZE
        assert info.currsize <= PARSE_CACHE_SIZE


class TestEnumerate:
    def test_q8(self):
        assert parse_group_spec("Q8").order == 8

    def test_trivial_group(self):
        g = PermGroup(1, [])
        assert g.order == 1
        assert g.exponent == 1

    def test_a4(self):
        assert parse_group_spec("A4").order == 12

    def test_cap_exceeded(self):
        g = parse_group_spec("S5", cap=50)
        with pytest.raises(ResourceCapError, match="50"):
            g.enumerate()

    def test_cap_exceeded_again_after_a_failed_enumeration(self):
        # a failed enumeration keeps none of the elements it found
        s5 = parse_group_spec("S5")
        g = PermGroup(s5.degree, s5.generators, cap=50)
        for _ in range(2):
            with pytest.raises(ResourceCapError):
                g.enumerate()
            with pytest.raises(ResourceCapError):
                s5.generators[0] in g

    def test_exponent_divides_order(self):
        for name in ["S4", "Q8", "D6", "C9", "A5"]:
            g = parse_group_spec(name)
            assert g.order % g.exponent == 0
            for el in g.elements:
                assert g.exponent % el.order() == 0


class TestConjugacyClasses:
    def test_s5_sizes(self):
        data = parse_group_spec("S5").conjugacy_classes()
        assert data.sizes == (1, 10, 15, 20, 20, 24, 30)
        assert sorted(data.sizes) == sorted([1, 10, 20, 15, 30, 20, 24])

    def test_a5_sizes(self):
        data = parse_group_spec("A5").conjugacy_classes()
        assert data.sizes == (1, 12, 12, 15, 20)
        assert sorted(data.sizes) == sorted([1, 20, 15, 12, 12])

    def test_c4_singletons(self):
        data = parse_group_spec("C4").conjugacy_classes()
        assert data.sizes == (1, 1, 1, 1)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_class_equation(self, name):
        g = parse_group_spec(name)
        data = g.conjugacy_classes()
        assert sum(data.sizes) == g.order
        assert data.sizes[0] == 1
        assert data.representatives[0] == Perm.identity(g.degree)

    def test_canonical_sorted(self):
        data = parse_group_spec("S4").conjugacy_classes()
        keys = list(zip(data.sizes, data.element_orders, data.representatives))
        assert keys == sorted(keys)

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for name in ["S4", "Q8", "D5", "A5"]:
            g = parse_group_spec(name)
            data = g.conjugacy_classes()
            for _ in range(25):
                t = rng.choice(g.elements)
                s = rng.choice(g.elements)
                assert data.member_index[t * s * t.inv()] == data.member_index[s]

    @pytest.mark.parametrize(
        "name", [n for n in BUILTIN_NAMES if parse_group_spec(n).order <= 60]
    )
    def test_inverse_class_by_brute_force(self, name):
        g = parse_group_spec(name)
        data = g.conjugacy_classes()
        for j, rep in enumerate(data.representatives):
            k = data.inverse_class[j]
            target = rep.inv()
            # conjugate by every element to find target's class
            assert any(
                t * target * t.inv() == data.representatives[k]
                or t * data.representatives[k] * t.inv() == target
                for t in g.elements
            )
            assert data.inverse_class[k] == j

    @pytest.mark.parametrize(
        "name", [n for n in BUILTIN_NAMES if parse_group_spec(n).order <= 60]
    )
    def test_power_class_by_brute_force(self, name):
        g = parse_group_spec(name)
        data = g.conjugacy_classes()
        for j, (rep, order) in enumerate(zip(data.representatives, data.element_orders)):
            power = Perm.identity(g.degree)
            for s in range(g.exponent):
                found = next(
                    idx
                    for idx, members in enumerate(data.members)
                    if power in members
                )
                assert data.power_class[j][s % order] == found
                power = power * rep
        assert all(data.power_class[j][0] == 0 for j in range(len(data)))
        assert all(
            data.power_class[j][1 % order] == j
            for j, order in enumerate(data.element_orders)
        )

    @pytest.mark.parametrize(
        "name",
        [n for n in BUILTIN_NAMES + ["A6", "S6"] if parse_group_spec(n).order <= 720]
        + RELABELED_PRODUCTS[:1],
    )
    def test_exponent_and_power_lengths_by_brute_force(self, name):
        g = parse_group_spec(name)
        identity = tuple(range(g.degree))

        def order_of(el):
            # repeated composition on image tuples until the identity
            k, cur = 1, el.images
            while cur != identity:
                cur = tuple(el.images[i] for i in cur)
                k += 1
            return k

        assert g.exponent == math.lcm(*(order_of(el) for el in g.elements))
        data = g.conjugacy_classes()
        for rep, order, powers in zip(data.representatives, data.element_orders,
                                      data.power_class):
            assert len(powers) == order == order_of(rep)


# every builtin of order <= 120 and three relabeled direct products
CLASS_RECORD_GROUPS = (
    [n for n in BUILTIN_NAMES if parse_group_spec(n).order <= 120] + RELABELED_PRODUCTS
)


def bfs_elements(generators, degree):
    """The elements in the order of a breadth-first walk on plain tuples:
    each element, as it is reached, times each generator in turn."""
    elements = [tuple(range(degree))]
    seen = set(elements)
    for el in elements:
        for gen in generators:
            prod = compose(el, gen)
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
    return elements


class TestClassRecord:
    @pytest.mark.parametrize("name", CLASS_RECORD_GROUPS)
    def test_classes_are_the_orbits_under_every_element(self, name):
        # an oracle that shares no code with the sweep: each class is the
        # set of t x t^-1 over every element t, on plain tuples
        g = parse_group_spec(name)
        elements = bfs_elements(g.generators, g.degree)
        assert g.elements == elements
        inverses = [tuple(sorted(range(g.degree), key=t.__getitem__)) for t in elements]
        orbits, seen = set(), set()
        for x in elements:
            if x not in seen:
                orbit = frozenset(compose(compose(t, x), t_inv)
                                  for t, t_inv in zip(elements, inverses))
                seen |= orbit
                orbits.add(orbit)
        data = g.conjugacy_classes()
        assert {frozenset(members) for members in data.members} == orbits
        assert len(data.members) == len(orbits)

    @pytest.mark.parametrize("name", CLASS_RECORD_GROUPS)
    def test_fields_agree_with_members(self, name):
        g = parse_group_spec(name)
        data = g.conjugacy_classes()
        assert sorted(m for members in data.members for m in members) == sorted(g.elements)
        assert len(data.member_index) == g.order
        for j, members in enumerate(data.members):
            assert all(data.member_index[m] == j for m in members)
            assert data.sizes[j] == len(members)
            assert data.representatives[j] == min(members)
            assert data.element_orders[j] == members[0].order()
        assert None not in data.member_index.values()
        keys = list(zip(data.sizes, data.element_orders, data.representatives))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", CLASS_RECORD_GROUPS)
    def test_membership_and_subgroups_before_and_after_classes(self, name):
        # a group the parse cache has not seen, so its classes are not made
        g = parse_group_spec(name)
        fresh = PermGroup(g.degree, g.generators)
        elements = set(g.elements)
        transpositions = [Perm.from_cycles([[a, b]], g.degree)
                          for b in range(g.degree) for a in range(b)]
        outsiders = [t for t in transpositions if t not in elements]
        gens = fresh.generators[:1]
        for swept in (False, True):
            assert (fresh._class_data is not None) == swept
            assert all(el in fresh for el in g.elements)
            assert [t in fresh for t in transpositions] == [t in elements for t in transpositions]
            assert fresh.subgroup(gens).order == (gens[0].order() if gens else 1)
            for t in outsiders[:3]:
                with pytest.raises(GroupMismatchError):
                    fresh.subgroup([t])
            fresh.conjugacy_classes()


class TestSubgroupMachinery:
    def test_commutator_s4_is_a4(self):
        g = parse_group_spec("S4")
        derived = g.commutator_subgroup()
        assert derived.order == 12
        assert derived.index == 2
        # independent parity oracle: A4 = even permutations
        assert all(parity(p.images) == 1 for p in derived.elements)
        # normal: every element, conjugated by every parent generator, stays
        members = set(derived.elements)
        for p in derived.elements:
            for t in g.generators:
                assert t * p * t.inv() in members

    def test_commutator_q8_is_center(self):
        g = parse_group_spec("Q8")
        derived = g.commutator_subgroup()
        center = g.center()
        assert derived.order == center.order == 2
        assert set(derived.elements) == set(center.elements)

    def test_commutator_abelian_trivial(self):
        assert parse_group_spec("C6").commutator_subgroup().order == 1

    def test_derived_series_s4(self):
        g = parse_group_spec("S4")
        series = g.derived_series()
        assert [s.order for s in series] == [12, 4, 1]
        check_series_by_commutator_oracle(g, series)

    @pytest.mark.parametrize("name", NORMAL_SUBGROUP_GROUPS)
    def test_derived_series_by_commutator_oracle(self, name):
        g = parse_group_spec(name)
        check_series_by_commutator_oracle(g, g.derived_series())

    @pytest.mark.parametrize("name", NORMAL_SUBGROUP_GROUPS)
    def test_normal_closure_of_every_class(self, name):
        g = parse_group_spec(name)
        data = g.conjugacy_classes()
        for rep, members in zip(data.representatives, data.members):
            closure = g.normal_closure(rep)
            oracle = brute_force_closure([m.images for m in members], g.degree)
            assert {p.images for p in closure.elements} == oracle
            assert closure.order == len(oracle)
            assert closure.index * closure.order == g.order

    @pytest.mark.parametrize("name", NORMAL_SUBGROUP_GROUPS)
    def test_center_commutes_with_generators(self, name):
        g = parse_group_spec(name)
        oracle = {
            el for el in g.elements
            if all(el * t == t * el for t in g.generators)
        }
        center = g.center()
        assert set(center.elements) == oracle
        assert all((el in center) == (el in oracle) for el in g.elements)
        assert center.order == len(oracle)

    def test_s8_derived_series_from_generator_commutators(self, monkeypatch):
        # a group the parse cache has not seen, with its classes computed
        s8 = parse_group_spec("S8")
        g = PermGroup(s8.degree, s8.generators)
        g.conjugacy_classes()
        count = count_perm_products(monkeypatch)
        g.commutator_subgroup()
        assert [term.order for term in g.derived_series()] == [20160]
        # about 6,000; a scan of every member of every class makes over 10^6
        assert count[0] < 10_000

    def test_a7_simple_not_solvable(self):
        g = parse_group_spec("A7")
        assert g.is_simple()
        assert not g.is_solvable()

    def test_derived_series_s6(self):
        assert [s.order for s in parse_group_spec("S6").derived_series()] == [360]

    def test_a5_not_solvable(self):
        g = parse_group_spec("A5")
        series = g.derived_series()
        assert series[-1].order == 60  # A5' = A5
        assert not g.is_solvable()

    def test_c12_solvable(self):
        assert parse_group_spec("perm:12:(0,1,2,3,4,5,6,7,8,9,10,11)").is_solvable()

    def test_a5_simple(self):
        assert parse_group_spec("A5").is_simple()

    def test_q8_not_simple(self):
        g = parse_group_spec("Q8")
        assert not g.is_simple()
        assert g.center().order == 2

    def test_c7_simple(self):
        assert parse_group_spec("C7").is_simple()

    def test_normal_closure(self):
        g = parse_group_spec("S4")
        transposition = perm_of(g, "(0,1)")
        assert g.normal_closure(transposition).order == 24
        double = perm_of(g, "(0,1)(2,3)")
        assert g.normal_closure(double).order == 4

    def test_subgroup_a5_in_s5(self):
        g = parse_group_spec("S5")
        a5 = parse_group_spec("A5")
        sub = g.subgroup(list(a5.generators))
        assert sub.order == 60
        assert sub.index == 2

    def test_whole_group_as_subgroup(self):
        g = parse_group_spec("S4")
        sub = g.subgroup(list(g.generators))
        assert sub.index == 1
        fusion = sub.fusion_to_parent()
        assert fusion == list(range(len(g.conjugacy_classes())))

    def test_small_subgroup_of_s3(self):
        g = parse_group_spec("S3")
        sub = g.subgroup([perm_of(g, "(0,1)")])
        assert sub.order == 2
        assert sub.index == 3

    def test_foreign_generator_rejected(self):
        g = parse_group_spec("A4")
        with pytest.raises(GroupMismatchError):
            g.subgroup([perm_of(g, "(0,1)")])

    def test_class_fusion_constant_on_classes(self):
        g = parse_group_spec("S4")
        sub = g.subgroup([perm_of(g, "(0,1,2)"), perm_of(g, "(0,1)(2,3)")])
        data = sub.conjugacy_classes()
        for members in data.members:
            assert len({data.member_index[m] for m in members}) == 1


class TestSolvabilityInventory:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_two_prime_groups_solvable(self, name):
        g = parse_group_spec(name)
        primes = set()
        n = g.order
        d = 2
        while d * d <= n:
            while n % d == 0:
                primes.add(d)
                n //= d
            d += 1
        if n > 1:
            primes.add(n)
        if len(primes) <= 2:
            assert g.is_solvable(), f"{name} of order {g.order} must be solvable"
        else:
            # the only builtins divisible by three primes, neither solvable
            assert name in ("A5", "S5")
            assert not g.is_solvable()
