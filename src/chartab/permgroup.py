"""Permutation groups: parsing, enumeration, conjugacy classes, subgroups.

Groups are given by generators on 0-based points (degree <= 32) and enumerated
by breadth-first closure, which is adequate at desk scale (default cap
100,000 elements).  Conjugacy classes carry inverse and power maps and are
sorted canonically: (size ascending, element order ascending, lexicographically
least representative); the representative is the least member.  Normal
subgroups are unions of classes (`NormalSubgroup`); `Subgroup` is a subgroup
given by generators, enumerated as a group of its own.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

MAX_DEGREE = 32
DEFAULT_CAP = 100_000
# parsed groups kept alive for reuse; more than any one caller's working set
# of specs, few enough that a long-running process stays bounded
PARSE_CACHE_SIZE = 32


class ParseError(ValueError):
    """Malformed group specification."""


class ResourceCapError(RuntimeError):
    """Enumeration exceeded the configured element cap."""


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


class Perm:
    """A permutation of {0..degree-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        self.images = tuple(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(degree))

    @staticmethod
    def from_cycles(cycles: Sequence[Sequence[int]], degree: int) -> "Perm":
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ParseError(f"point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise ParseError(f"point {pt} repeated in cycle specification")
                seen.add(pt)
            for i, pt in enumerate(cycle):
                images[pt] = cycle[(i + 1) % len(cycle)]
        return Perm(images)

    def __mul__(self, other: "Perm") -> "Perm":
        # function composition: (self * other)(i) = self(other(i))
        o = other.images
        s = self.images
        return Perm(tuple(s[o[i]] for i in range(len(s))))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def inv(self) -> "Perm":
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Perm(out)

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inv() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting from its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                cycle.append(pt)
                seen[pt] = True
                pt = self.images[pt]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        lengths = [len(c) for c in self.cycles()]
        return math.lcm(*lengths) if lengths else 1

    def fixed_points(self) -> int:
        return sum(1 for i, v in enumerate(self.images) if i == v)

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cyc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"


class ConjugacyClass:
    """One conjugacy class: least-member representative, size, members."""

    __slots__ = ("representative", "size", "members", "element_order")

    def __init__(self, members: list[Perm]):
        self.members = sorted(members)
        self.representative = self.members[0]
        self.size = len(members)
        self.element_order = self.representative.order()


class ClassData:
    """Conjugacy classes in canonical order with inverse and power maps.

    `power_class[j][s]` is the class of g_j^s for s < d_j, the order of g_j;
    the class of any power g_j^s is `power_class[j][s % d_j]`."""

    def __init__(self, classes: list[ConjugacyClass]):
        self.classes = classes
        self.member_index: dict[Perm, int] = {}
        for idx, cl in enumerate(classes):
            for m in cl.members:
                self.member_index[m] = idx
        self.inverse_class = [
            self.member_index[cl.representative.inv()] for cl in classes
        ]
        self.power_class = []
        for cl in classes:
            powers, cur = [0], cl.representative  # the identity class is first
            for _ in range(1, cl.element_order):
                powers.append(self.member_index[cur])
                cur = cur * cl.representative
            self.power_class.append(powers)

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(cl.size for cl in self.classes)

    @property
    def representatives(self) -> tuple[Perm, ...]:
        return tuple(cl.representative for cl in self.classes)

    @property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(cl.element_order for cl in self.classes)


class PermGroup:
    """A finite permutation group, enumerated on demand."""

    def __init__(self, degree: int, generators: Iterable[Perm],
                 cap: int = DEFAULT_CAP, spec: Optional[str] = None):
        if degree < 1 or degree > MAX_DEGREE:
            raise ParseError(f"degree {degree} outside [1, {MAX_DEGREE}]")
        self.degree = degree
        self.generators = tuple(generators)
        for g in self.generators:
            if g.degree != degree:
                raise ParseError("generator degree does not match group degree")
            if sorted(g.images) != list(range(degree)):
                raise ParseError(f"generator {g.images} is not a bijection")
        self.cap = cap
        self.spec = spec
        self._elements: Optional[list[Perm]] = None
        self._index: Optional[dict[Perm, int]] = None
        self._class_data: Optional[ClassData] = None

    # -- enumeration ------------------------------------------------------

    def enumerate(self) -> list[Perm]:
        """Breadth-first product closure of the generators, deterministic order."""
        if self._elements is not None:
            return self._elements
        identity = Perm.identity(self.degree)
        elements = [identity]
        index = {identity: 0}
        frontier = [identity]
        while frontier:
            new_frontier = []
            for el in frontier:
                for gen in self.generators:
                    prod = el * gen
                    if prod not in index:
                        index[prod] = len(elements)
                        elements.append(prod)
                        new_frontier.append(prod)
                        if len(elements) > self.cap:
                            raise ResourceCapError(
                                f"group enumeration exceeded cap of {self.cap} elements"
                            )
            frontier = new_frontier
        self._elements = elements
        self._index = index
        return elements

    @property
    def elements(self) -> list[Perm]:
        return self.enumerate()

    @property
    def order(self) -> int:
        return len(self.enumerate())

    @property
    def exponent(self) -> int:
        return math.lcm(*self.conjugacy_classes().element_orders)

    def __contains__(self, p: Perm) -> bool:
        self.enumerate()
        return p in self._index

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self) -> ClassData:
        if self._class_data is not None:
            return self._class_data
        elements = self.enumerate()
        gens = [(gen, gen.inv()) for gen in self.generators]
        assigned: dict[Perm, bool] = {}
        raw_classes: list[list[Perm]] = []
        for el in elements:
            if el in assigned:
                continue
            # orbit of el under conjugation by the generators
            orbit = [el]
            assigned[el] = True
            queue = [el]
            while queue:
                cur = queue.pop()
                for gen, gen_inv in gens:
                    conj = gen * cur * gen_inv
                    if conj not in assigned:
                        assigned[conj] = True
                        orbit.append(conj)
                        queue.append(conj)
            raw_classes.append(orbit)
        classes = [ConjugacyClass(members) for members in raw_classes]
        classes.sort(key=lambda c: (c.size, c.element_order, c.representative.images))
        self._class_data = ClassData(classes)
        return self._class_data

    # -- subgroups ------------------------------------------------------------

    def subgroup(self, gens: Sequence[Perm]) -> "Subgroup":
        for g in gens:
            if g not in self:
                raise GroupMismatchError(f"generator {g.cycle_string()} not in parent group")
        return Subgroup(self, gens)

    # -- normal subgroups, as unions of conjugacy classes ---------------------

    def commutator_subgroup(self) -> "NormalSubgroup":
        """G', closed from the classes of the commutators x^-1 z, x a class
        representative and z a member of its class: every commutator
        g^-1 t^-1 g t is conjugate to one of these."""
        data = self.conjugacy_classes()
        index = data.member_index
        seed = set()
        for cl in data.classes:
            x_inv = cl.representative.inv()
            seed.update(index[x_inv * z] for z in cl.members)
        return self._normal_closure_of(seed)

    def normal_closure(self, s: Perm) -> "NormalSubgroup":
        if s not in self:
            raise GroupMismatchError(f"element {s.cycle_string()} not in group")
        return self._normal_closure_of([self.conjugacy_classes().member_index[s]])

    def _normal_closure_of(self, seed: Iterable[int]) -> "NormalSubgroup":
        """The smallest normal subgroup containing the classes `seed`: the
        union of classes closed under products.  C_j C_k is the union of the
        classes of g_j y, y in C_k, and equals C_k C_j, so each class taken
        from the worklist is multiplied with itself and every class taken
        before it."""
        data = self.conjugacy_classes()
        index = data.member_index
        found = {0, *seed}
        queue = list(found)
        done: list[int] = []
        while queue and len(found) < len(data):
            j = queue.pop()
            done.append(j)
            g_j = data.classes[j].representative
            for k in done:
                for y in data.classes[k].members:
                    l = index[g_j * y]
                    if l not in found:
                        found.add(l)
                        queue.append(l)
        return NormalSubgroup(self, found)

    def center(self) -> "NormalSubgroup":
        return NormalSubgroup(
            self, [j for j, cl in enumerate(self.conjugacy_classes().classes) if cl.size == 1]
        )

    def derived_series(self) -> list["NormalSubgroup"]:
        """G' >= G'' >= ... until stabilization, each term normal in G.

        A term N is normal in G, and so is [N, N]: it is the closure of the
        classes of the commutators [x, y], x a class representative in N and
        y in N, since every commutator of N is conjugate to one of these."""
        data = self.conjugacy_classes()
        index = data.member_index
        series: list[NormalSubgroup] = []
        current_order = self.order
        derived = self.commutator_subgroup()
        while True:
            if derived.order == current_order:
                if not series:
                    series.append(derived)
                return series
            series.append(derived)
            if derived.order == 1:
                return series
            xs = [(data.classes[j].representative.inv(), data.classes[j].representative)
                  for j in derived.classes]
            ys = [(y.inv(), y) for y in derived.elements]
            current_order = derived.order
            derived = self._normal_closure_of(
                {index[x_inv * (y_inv * x * y)] for x_inv, x in xs for y_inv, y in ys}
            )

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].order == 1

    def is_simple(self) -> bool:
        h = len(self.conjugacy_classes())
        return self.order > 1 and all(
            len(self._normal_closure_of([j]).classes) == h for j in range(1, h)
        )

    def __repr__(self) -> str:
        label = self.spec or f"degree-{self.degree} group"
        if self._elements is not None:
            return f"PermGroup({label}, order={self.order})"
        return f"PermGroup({label})"


class Subgroup:
    """A subgroup of a parent group, enumerated with its own class data.

    `class_fusion` maps each subgroup element to its subgroup class index;
    `fusion_to_parent` maps subgroup class indices to parent class indices.
    """

    def __init__(self, parent: PermGroup, gens: Sequence[Perm]):
        self.parent = parent
        self._group = PermGroup(parent.degree, tuple(gens), cap=parent.cap)
        self.elements = self._group.elements
        self.element_set = set(self.elements)
        self.generators = self._group.generators
        if parent.order % self.order != 0:
            raise GroupMismatchError("subgroup order does not divide parent order")
        self.index = parent.order // self.order

    @property
    def order(self) -> int:
        return self._group.order

    def as_group(self) -> PermGroup:
        """The subgroup as a group in its own right (shared instance)."""
        return self._group

    @property
    def class_data(self) -> ClassData:
        return self._group.conjugacy_classes()

    @property
    def class_fusion(self) -> dict[Perm, int]:
        return self._group.conjugacy_classes().member_index

    def fusion_to_parent(self) -> list[int]:
        parent_index = self.parent.conjugacy_classes().member_index
        return [parent_index[cl.representative] for cl in self.class_data.classes]

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index})"


class NormalSubgroup:
    """A normal subgroup of a parent group, held as the sorted indices of the
    parent's conjugacy classes whose union it is."""

    def __init__(self, parent: PermGroup, classes: Iterable[int]):
        self.parent = parent
        self.classes = tuple(sorted(classes))
        data = parent.conjugacy_classes()
        self.order = sum(data.classes[j].size for j in self.classes)
        self.index = parent.order // self.order

    @cached_property
    def elements(self) -> list[Perm]:
        data = self.parent.conjugacy_classes()
        return [m for j in self.classes for m in data.classes[j].members]

    @cached_property
    def element_set(self) -> set[Perm]:
        return set(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return self.parent.conjugacy_classes().member_index.get(p) in self.classes

    def __repr__(self) -> str:
        return f"NormalSubgroup(order={self.order}, index={self.index})"


# -- group-spec grammar -------------------------------------------------------

_BUILTIN_RE = re.compile(r"^([SACD])([1-9])$")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str, degree: int) -> Perm:
    text = text.strip()
    if not text:
        raise ParseError("empty cycle specification")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ParseError(f"malformed cycles {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            continue  # "()" denotes the identity
        try:
            pts = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise ParseError(f"malformed cycle ({body})") from exc
        cycles.append(pts)
    return Perm.from_cycles(cycles, degree)


def _builtin_generators(family: str, n: int) -> tuple[int, list[Perm]]:
    if family == "S":
        if n == 1:
            return 1, []
        gens = [Perm.from_cycles([[0, 1]], n)]
        if n > 2:
            gens.append(Perm.from_cycles([list(range(n))], n))
        return n, gens
    if family == "A":
        if n <= 2:
            return max(n, 1), []
        return n, [Perm.from_cycles([[0, 1, k]], n) for k in range(2, n)]
    if family == "C":
        if n == 1:
            return 1, [Perm.identity(1)]
        return n, [Perm.from_cycles([list(range(n))], n)]
    if family == "D":
        # the natural action on n vertices is faithful only for n >= 3
        if n == 1:
            return 2, [Perm.from_cycles([[0, 1]], 2)]
        if n == 2:
            return 4, [Perm.from_cycles([[0, 1]], 4), Perm.from_cycles([[2, 3]], 4)]
        rot = Perm.from_cycles([list(range(n))], n)
        refl = Perm([(n - i) % n for i in range(n)])
        return n, [rot, refl]
    raise ParseError(f"unknown builtin family {family!r}")


# regular permutation representation of the quaternion group on
# [1, i, -1, -i, j, k, -j, -k]: left multiplication by i and by j
_Q8_GEN_I = Perm((1, 2, 3, 0, 5, 6, 7, 4))
_Q8_GEN_J = Perm((4, 7, 6, 5, 2, 1, 0, 3))


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_group_spec_cached(text: str, cap: int) -> PermGroup:
    text = text.strip()
    if text == "Q8":
        return PermGroup(8, [_Q8_GEN_I, _Q8_GEN_J], cap=cap, spec="Q8")
    m = _BUILTIN_RE.match(text)
    if m:
        family, n = m.group(1), int(m.group(2))
        degree, gens = _builtin_generators(family, n)
        return PermGroup(degree, gens, cap=cap, spec=text)
    if text.startswith("perm:"):
        parts = text.split(":", 2)
        if len(parts) != 3:
            raise ParseError(f"malformed perm spec {text!r}")
        try:
            degree = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"malformed degree in {text!r}") from exc
        gens = [_parse_cycles(chunk, degree) for chunk in parts[2].split(";")]
        return PermGroup(degree, gens, cap=cap, spec=text)
    raise ParseError(f"unknown group spec {text!r}")


def parse_group_spec(text: str, cap: int = DEFAULT_CAP) -> PermGroup:
    """Parse `S<n>|A<n>|C<n>|D<n>|Q8` or `perm:<degree>:<cycles>(;<cycles>)*`."""
    return _parse_group_spec_cached(text.strip(), cap)

