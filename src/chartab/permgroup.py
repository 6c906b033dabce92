"""Permutation groups: parsing, enumeration, conjugacy classes, subgroups.

Groups are given by generators on 0-based points (degree <= 32) and enumerated
by breadth-first closure, which is adequate at desk scale (default cap
100,000 elements).  Every product x * q is one C-level gather built once for
the right factor q (`Perm.right_mul`).  Enumeration records the Cayley graph
(`PermGroup.columns`, the position of el * s of each element for each
generator s), the conjugation sweep runs on it with no product, and the group
keeps it.  Classes carry inverse and power maps and are sorted canonically:
(size ascending, element order ascending, lexicographically least
representative); the representative is the least member.  Normal subgroups
are unions of classes (`NormalSubgroup`); `Subgroup` is a subgroup given by
generators, a `PermGroup` of its own that knows its parent.
"""

from __future__ import annotations

import math
import re
from array import array
from functools import cached_property, lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

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


class Perm(tuple):
    """A permutation of {0..degree-1}: the tuple of its images, which it
    equals, hashes and orders as."""

    __slots__ = ()

    @property
    def images(self) -> tuple[int, ...]:
        return self

    @property
    def degree(self) -> int:
        return len(self)

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

    def right_mul(self) -> Callable[[Sequence[int]], tuple[int, ...]]:
        """The map x -> x * self, (x * self)(i) = x(self(i)): one C-level
        gather, built once for self.  It returns the image tuple, which
        equals and hashes as the `Perm`, and every product of the library
        is made by it."""
        if len(self) > 1:
            return itemgetter(*self)
        return tuple  # degree 1: a gather at one point returns a bare int

    def __mul__(self, other: "Perm") -> "Perm":
        # function composition: (self * other)(i) = self(other(i))
        return Perm(other.right_mul()(self))

    def __call__(self, point: int) -> int:
        return self[point]

    def inv(self) -> "Perm":
        out = [0] * len(self)
        for i, v in enumerate(self):
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
            n >>= 1
            if n:  # no square past the top bit
                base = base * base
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting from its least point."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            if seen[start] or self[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            pt = self[start]
            while pt != start:
                cycle.append(pt)
                seen[pt] = True
                pt = self[pt]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        lengths = [len(c) for c in self.cycles()]
        return math.lcm(*lengths) if lengths else 1

    def fixed_points(self) -> int:
        return sum(1 for i, v in enumerate(self) if i == v)

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cyc)

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"


def _powers(g: Perm) -> list[tuple[int, ...]]:
    """g, g^2, ..., g^d = 1, d the order of g: d - 1 products by one gather."""
    times_g, identity = g.right_mul(), tuple(range(len(g)))
    powers = [g]
    while powers[-1] != identity:
        powers.append(times_g(powers[-1]))
    return powers


class ClassData:
    """Conjugacy classes in canonical order with inverse and power maps.

    Class j holds `members[j]`, `sizes[j]`, its least member
    `representatives[j]` and `element_orders[j]`; `member_index` maps every
    element of the group to its class.  `power_class[j][s]` is the class of
    g_j^s for s < d_j, the order of g_j; the class of any power g_j^s is
    `power_class[j][s % d_j]`.  `inverse_position[x]` is the position of el_x^-1."""

    def __init__(self, orbits: list[list[Perm]], member_index: dict[Perm, int], inverse_position):
        """`orbits` are the classes in any order and `member_index` holds
        every element of the group; the classes are sorted canonically and
        each element's value in `member_index` becomes its class."""
        self.inverse_position = inverse_position
        reps = [min(orbit) for orbit in orbits]
        powers = [_powers(g) for g in reps]
        ranked = sorted(range(len(orbits)),
                        key=lambda c: (len(orbits[c]), len(powers[c]), reps[c]))
        self.members = [orbits[c] for c in ranked]
        self.sizes = tuple(map(len, self.members))
        self.representatives = tuple(reps[c] for c in ranked)
        self.element_orders = tuple(len(powers[c]) for c in ranked)
        for j, members in enumerate(self.members):
            member_index.update(zip(members, repeat(j)))
        self.member_index = member_index
        # the class of g^0, the identity, is first
        self.power_class = [[0, *map(member_index.__getitem__, powers[c][:-1])]
                            for c in ranked]
        # g^-1 = g^(d-1), the last power
        self.inverse_class = [powers[-1] for powers in self.power_class]

    def __len__(self) -> int:
        return len(self.members)


class PermGroup:
    """A finite permutation group, enumerated on demand.

    A group is its degree and generators: two groups are equal, and hash
    alike, when those are equal, since the enumeration, and so every
    element position and class index, depends on nothing else.  Every
    check that two operands are on one group reads this rule."""

    def __init__(self, degree: int, generators: Iterable[Perm],
                 cap: int = DEFAULT_CAP, spec: Optional[str] = None):
        if degree < 1 or degree > MAX_DEGREE:
            raise ParseError(f"degree {degree} outside [1, {MAX_DEGREE}]")
        self.degree = degree
        self.generators = tuple(generators)
        for g in self.generators:
            if g.degree != degree:
                raise ParseError("generator degree does not match group degree")
            if sorted(g) != list(range(degree)):
                raise ParseError(f"generator {tuple(g)} is not a bijection")
        self.cap = cap
        self.spec = spec
        self._elements: Optional[list[Perm]] = None
        # every element -> its position in `_elements` from enumeration until
        # the classes are swept, then its canonical class (member_index)
        self._index: Optional[dict[Perm, int]] = None
        # per generator s, the position of el_i * s for each position i: made
        # by enumeration as lists, which the sweep reads and keeps as arrays
        self._right: Optional[list] = None
        self._class_data: Optional[ClassData] = None
        self._commutator_subgroup: Optional[NormalSubgroup] = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.degree, self.generators))

    # -- enumeration ------------------------------------------------------

    def enumerate(self) -> list[Perm]:
        """Breadth-first product closure of the generators, deterministic
        order.  The element index maps each element to its position in the
        list, and `columns[t][i]` is the position of el_i * s for the t-th
        generator s."""
        if self._elements is not None:
            return self._elements
        identity = Perm.identity(self.degree)
        elements = [identity]
        index: dict[Perm, int] = {identity: 0}
        gens = [(gen.right_mul(), []) for gen in self.generators]
        for el in elements:  # the list grows while it is walked: breadth-first
            for times_gen, right in gens:
                prod = times_gen(el)
                pos = index.get(prod)
                if pos is None:
                    prod = Perm(prod)
                    pos = index[prod] = len(elements)
                    elements.append(prod)
                    if len(elements) > self.cap:
                        raise ResourceCapError(
                            f"group enumeration exceeded cap of {self.cap} elements"
                        )
                right.append(pos)
        self._elements, self._index = elements, index
        self._right = [right for _, right in gens]
        return elements

    @property
    def elements(self) -> list[Perm]:
        return self.enumerate()

    @property
    def columns(self) -> list:
        """`columns[t][i]` is the position of el_i * s_t in `elements`."""
        self.enumerate()
        return self._right

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
        index = self._index
        # inv[x] is the position of x^-1, one inversion per pair {x, x^-1}.
        # On positions, x -> s^-1 x s is inv[R_s[inv[R_s[x]]]], through x s,
        # s^-1 x^-1 and s^-1 x^-1 s: four list lookups and no product
        inv = [None] * len(elements)
        for x, el in enumerate(elements):
            if inv[x] is None:
                inv[x] = y = index[el.inv()]
                inv[y] = x
        right = self._right
        seen = bytearray(len(elements))
        orbits: list[list[Perm]] = []
        for x in range(len(elements)):
            if seen[x]:
                continue
            # orbit of x under conjugation by the generators, walked while
            # it grows
            seen[x] = 1
            orbit = [x]
            for y in orbit:
                for r in right:
                    z = inv[r[inv[r[y]]]]
                    if not seen[z]:
                        seen[z] = 1
                        orbit.append(z)
            orbits.append(list(map(elements.__getitem__, orbit)))
        for t in range(len(right)):  # kept as arrays, 4 bytes a position, one at a time
            right[t] = array("i", right[t])
        inv = array("i", inv)
        self._class_data = ClassData(orbits, index, inv)
        return self._class_data

    # -- subgroups ------------------------------------------------------------

    def subgroup(self, gens: Sequence[Perm]) -> "Subgroup":
        for g in gens:
            if g not in self:
                raise GroupMismatchError(f"generator {g.cycle_string()} not in parent group")
        return Subgroup(self, gens)

    # -- normal subgroups, as unions of conjugacy classes ---------------------

    def commutator_subgroup(self) -> "NormalSubgroup":
        """G', closed from the classes of the commutators [a, b] of pairs of
        generators: modulo that closure the generators commute, so the
        quotient is abelian."""
        if self._commutator_subgroup is None:
            gens = self.generators
            self._commutator_subgroup = self._normal_closure_of(self._commutators(gens, gens))
        return self._commutator_subgroup

    def _commutators(self, ts: Sequence[Perm], xs: Sequence[Perm]) -> set[int]:
        """The classes of the commutators t^-1 x^-1 t x, t in ts, x in xs,
        each read as its conjugate x^-1 t x t^-1 by t: three products, each
        by a gather built once for its right factor."""
        index = self.conjugacy_classes().member_index
        xs = [(x.inv(), x.right_mul()) for x in xs]
        out = set()
        for t in ts:
            times_t, times_t_inv = t.right_mul(), t.inv().right_mul()
            out.update(index[times_t_inv(times_x(times_t(x_inv)))] for x_inv, times_x in xs)
        return out

    def normal_closure(self, s: Perm) -> "NormalSubgroup":
        if s not in self:
            raise GroupMismatchError(f"element {s.cycle_string()} not in group")
        return self._normal_closure_of([self.conjugacy_classes().member_index[s]])

    def _normal_closure_of(self, seed: Iterable[int]) -> "NormalSubgroup":
        """The smallest normal subgroup containing the classes `seed`: the
        subgroup generated by X, the members of those classes.  The classes
        are reached from the identity's by adding, for each class C_i reached
        and each seed class C_k, the classes of C_i C_k.  Those are the
        classes of x g_k for x in C_i, and also of y g_i for y in C_k: x y =
        h (x' g_k) h^-1 with x' = h^-1 x h in C_i when y = h g_k h^-1, and
        likewise on the other side, since C_i C_k = C_k C_i.  So each
        product is read from the smaller class, times the representative
        of the other."""
        data = self.conjugacy_classes()
        index = data.member_index
        seed = set(seed)
        found = {0, *seed}
        queue = list(found)
        while queue and len(found) < len(data):
            i = queue.pop()
            for k in seed:
                small, large = (k, i) if data.sizes[k] <= data.sizes[i] else (i, k)
                products = map(data.representatives[large].right_mul(), data.members[small])
                for l in map(index.__getitem__, products):
                    if l not in found:
                        found.add(l)
                        queue.append(l)
        return NormalSubgroup(self, found)

    def center(self) -> "NormalSubgroup":
        return NormalSubgroup(
            self, [j for j, size in enumerate(self.conjugacy_classes().sizes) if size == 1]
        )

    def derived_series(self) -> list["NormalSubgroup"]:
        """G' >= G'' >= ... until stabilization, each term normal in G.

        A term N is the closure of its seed classes, whose members X
        generate N.  [N, N] is normal in G and is the closure of the
        classes of the commutators [t, x], t a representative of a seed
        class and x in X: every [t', x'] on X is conjugate to one of these,
        so modulo that closure the members of X commute."""
        data = self.conjugacy_classes()
        seed = self._commutators(self.generators, self.generators)
        series = [self.commutator_subgroup()]
        while 1 < series[-1].order < self.order:  # a perfect G stops at G'
            seed = self._commutators([data.representatives[j] for j in seed],
                                     [y for j in seed for y in data.members[j]])
            derived = self._normal_closure_of(seed)
            if derived.order == series[-1].order:
                break
            series.append(derived)
        return series

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


class Subgroup(PermGroup):
    """A subgroup of a parent group given by generators, enumerated as a
    group of its own; `fusion_to_parent` maps its class indices to the
    parent's."""

    def __init__(self, parent: PermGroup, gens: Sequence[Perm]):
        super().__init__(parent.degree, gens, cap=parent.cap)
        self.parent = parent
        if parent.order % self.order != 0:
            raise GroupMismatchError("subgroup order does not divide parent order")
        self.index = parent.order // self.order

    def as_group(self) -> "Subgroup":
        """The subgroup as a group in its own right: itself."""
        return self

    def fusion_to_parent(self) -> list[int]:
        parent_index = self.parent.conjugacy_classes().member_index
        return [parent_index[g] for g in self.conjugacy_classes().representatives]

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index})"


class NormalSubgroup:
    """A normal subgroup of a parent group, held as the sorted indices of the
    parent's conjugacy classes whose union it is."""

    def __init__(self, parent: PermGroup, classes: Iterable[int]):
        self.parent = parent
        self.classes = tuple(sorted(classes))
        data = parent.conjugacy_classes()
        self.order = sum(data.sizes[j] for j in self.classes)
        self.index = parent.order // self.order

    @cached_property
    def elements(self) -> list[Perm]:
        data = self.parent.conjugacy_classes()
        return [m for j in self.classes for m in data.members[j]]

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
        if not 1 <= degree <= MAX_DEGREE:  # before any cycle allocates `degree` images
            raise ParseError(f"degree {degree} outside [1, {MAX_DEGREE}]")
        gens = [_parse_cycles(chunk, degree) for chunk in parts[2].split(";")]
        return PermGroup(degree, gens, cap=cap, spec=text)
    raise ParseError(f"unknown group spec {text!r}")


def parse_group_spec(text: str, cap: int = DEFAULT_CAP) -> PermGroup:
    """Parse `S<n>|A<n>|C<n>|D<n>|Q8` or `perm:<degree>:<cycles>(;<cycles>)*`."""
    return _parse_group_spec_cached(text.strip(), cap)

