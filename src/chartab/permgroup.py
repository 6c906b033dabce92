"""Permutation groups: parsing, enumeration, conjugacy classes, subgroups.

Groups are given by generators on 0-based points (degree <= 32) and enumerated
by breadth-first closure, which is adequate at desk scale (default cap
100,000 elements).  Conjugacy classes carry inverse and power maps and are
sorted canonically: (size ascending, element order ascending, lexicographically
least representative); the representative is the least member.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
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
    """Conjugacy classes in canonical order with inverse and power maps."""

    def __init__(self, classes: list[ConjugacyClass], exponent: int):
        self.classes = classes
        self.member_index: dict[Perm, int] = {}
        for idx, cl in enumerate(classes):
            for m in cl.members:
                self.member_index[m] = idx
        self.inverse_class = [
            self.member_index[cl.representative.inv()] for cl in classes
        ]
        self.power_class = [
            [self.member_index[cl.representative ** s] for s in range(exponent)]
            for cl in classes
        ]

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
        self._exponent: Optional[int] = None
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
        self._exponent = math.lcm(*(el.order() for el in elements))
        return elements

    @property
    def elements(self) -> list[Perm]:
        return self.enumerate()

    @property
    def order(self) -> int:
        return len(self.enumerate())

    @property
    def exponent(self) -> int:
        self.enumerate()
        return self._exponent

    def __contains__(self, p: Perm) -> bool:
        self.enumerate()
        return p in self._index

    def element_index(self, p: Perm) -> int:
        self.enumerate()
        return self._index[p]

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self) -> ClassData:
        if self._class_data is not None:
            return self._class_data
        elements = self.enumerate()
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
                for gen in self.generators:
                    conj = gen * cur * gen.inv()
                    if conj not in assigned:
                        assigned[conj] = True
                        orbit.append(conj)
                        queue.append(conj)
            raw_classes.append(orbit)
        classes = [ConjugacyClass(members) for members in raw_classes]
        classes.sort(key=lambda c: (c.size, c.element_order, c.representative.images))
        self._class_data = ClassData(classes, self.exponent)
        return self._class_data

    @property
    def class_data(self) -> ClassData:
        return self.conjugacy_classes()

    # -- subgroup machinery ---------------------------------------------------

    def subgroup(self, gens: Sequence[Perm]) -> "Subgroup":
        for g in gens:
            if g not in self:
                raise GroupMismatchError(f"generator {g.cycle_string()} not in parent group")
        return Subgroup(self, gens)

    def commutator_subgroup(self) -> "Subgroup":
        """Normal closure of all generator-pair commutators."""
        commutators = []
        for a in self.generators:
            for b in self.generators:
                c = a.inv() * b.inv() * a * b
                if not c.is_identity():
                    commutators.append(c)
        return self._normal_closure_of(commutators)

    def normal_closure(self, s: Perm) -> "Subgroup":
        if s not in self:
            raise GroupMismatchError(f"element {s.cycle_string()} not in group")
        return self._normal_closure_of([s])

    def _normal_closure_of(self, seed: Sequence[Perm]) -> "Subgroup":
        gens = [g for g in seed if not g.is_identity()]
        while True:
            sub = Subgroup(self, gens)
            extra = []
            for h in sub.elements:
                for g in self.generators:
                    conj = g * h * g.inv()
                    if conj not in sub.element_set:
                        extra.append(conj)
            if not extra:
                return sub
            gens = list(sub.generators) + extra

    def center(self) -> "Subgroup":
        members = [
            el for el in self.elements
            if all(el * g == g * el for g in self.generators)
        ]
        return Subgroup(self, members)

    def derived_series(self) -> list["Subgroup"]:
        """G' >= G'' >= ... until stabilization, each term as a subgroup of G."""
        series = []
        current_gens = list(self.generators)
        current_order = self.order
        while True:
            term_group = PermGroup(self.degree, current_gens, cap=self.cap)
            derived = term_group.commutator_subgroup()
            sub = Subgroup(self, derived.generators)
            if sub.order == current_order:
                if not series:
                    series.append(sub)
                return series
            series.append(sub)
            if sub.order == 1:
                return series
            current_gens = list(sub.generators)
            current_order = sub.order

    def is_solvable(self) -> bool:
        series = self.derived_series()
        return series[-1].order == 1

    def is_simple(self) -> bool:
        if self.order == 1:
            return False
        data = self.conjugacy_classes()
        for cl in data.classes[1:]:
            if self.normal_closure(cl.representative).order != self.order:
                return False
        return True

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

    def is_normal(self) -> bool:
        return all(
            g * h * g.inv() in self.element_set
            for g in self.parent.generators
            for h in self.generators
        )

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index})"


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


# module-level aliases matching the operation names
def enumerate_group(g: PermGroup) -> list[Perm]:
    return g.enumerate()


def conjugacy_classes(g: PermGroup) -> ClassData:
    return g.conjugacy_classes()


def commutator_subgroup(g: PermGroup) -> Subgroup:
    return g.commutator_subgroup()


def derived_series(g: PermGroup) -> list[Subgroup]:
    return g.derived_series()


def is_solvable(g: PermGroup) -> bool:
    return g.is_solvable()


def center(g: PermGroup) -> Subgroup:
    return g.center()


def normal_closure(g: PermGroup, s: Perm) -> Subgroup:
    return g.normal_closure(s)


def is_simple(g: PermGroup) -> bool:
    return g.is_simple()


def subgroup(g: PermGroup, gens: Sequence[Perm]) -> Subgroup:
    return g.subgroup(gens)
