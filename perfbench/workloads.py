"""Seeded request lists and reference answers for the chartab benchmark.

Nothing here imports chartab.  Requests are plain JSON-able dicts, and every
reference answer is derived from hard-coded facts about small base groups
(class sizes, degrees and derived series of C2, S3, D4, ..., A7), so what the
benchmark accepts as correct does not depend on the program it measures.
Direct products are laid out on disjoint blocks of points and then relabeled
by a seeded permutation of all points; relabeling changes the spec text but
not the answers, which are those of the base group.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

# Seed kept out of every tuning run; use it once, to confirm a claimed gain.
RESERVED_SEED = 1_000_003


def _perm(degree: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    images = list(range(degree))
    for cycle in cycles:
        for k, point in enumerate(cycle):
            images[point] = cycle[(k + 1) % len(cycle)]
    return tuple(images)


@dataclass(frozen=True)
class Factor:
    degree: int
    generators: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]
    degrees: tuple[int, ...]
    exponent: int
    # |G'|, |G''|, ... up to the first repeated or trivial term
    derived_orders: tuple[int, ...]
    simple: bool


def _alternating(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_perm(n, (0, 1, k)) for k in range(2, n))


def _symmetric(n: int) -> tuple[tuple[int, ...], ...]:
    return (_perm(n, (0, 1)), _perm(n, tuple(range(n))))


# Class sizes follow from cycle types (n!/z_lambda for S_n, with the split
# classes of A_n halved); degrees are the standard tables.  _check_factors
# verifies sum(sizes) = sum(degree^2) = |G| for each entry.
FACTORS = {
    "C2": Factor(2, (_perm(2, (0, 1)),), (1, 1), (1, 1), 2, (1,), True),
    "C3": Factor(3, (_perm(3, (0, 1, 2)),), (1, 1, 1), (1, 1, 1), 3, (1,), True),
    "S3": Factor(3, _symmetric(3), (1, 2, 3), (1, 1, 2), 6, (3, 1), False),
    "D4": Factor(4, (_perm(4, (0, 1, 2, 3)), _perm(4, (1, 3))),
                 (1, 1, 2, 2, 2), (1, 1, 1, 1, 2), 4, (2, 1), False),
    # regular representation of the quaternion group, as chartab's builtin Q8
    "Q8": Factor(8, ((1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)),
                 (1, 1, 2, 2, 2), (1, 1, 1, 1, 2), 4, (2, 1), False),
    "S4": Factor(4, _symmetric(4), (1, 3, 6, 6, 8), (1, 1, 2, 3, 3), 12,
                 (12, 4, 1), False),
    "A5": Factor(5, _alternating(5), (1, 12, 12, 15, 20), (1, 3, 3, 4, 5), 30,
                 (60,), True),
    "S5": Factor(5, _symmetric(5), (1, 10, 15, 20, 20, 24, 30),
                 (1, 1, 4, 4, 5, 5, 6), 60, (60,), False),
    "A6": Factor(6, _alternating(6), (1, 40, 40, 45, 72, 72, 90),
                 (1, 5, 5, 8, 8, 9, 10), 60, (360,), True),
    "S6": Factor(6, _symmetric(6),
                 (1, 15, 15, 40, 40, 45, 90, 90, 120, 120, 144),
                 (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16), 60, (360,), False),
    "A7": Factor(7, _alternating(7),
                 (1, 70, 105, 210, 280, 360, 360, 504, 630),
                 (1, 6, 10, 10, 14, 14, 15, 21, 35), 420, (2520,), True),
}


def _check_factors() -> None:
    for name, f in FACTORS.items():
        order = sum(f.class_sizes)
        if sum(d * d for d in f.degrees) != order or len(f.degrees) != len(f.class_sizes):
            raise AssertionError(f"inconsistent reference data for {name}")


_check_factors()


@dataclass(frozen=True)
class Reference:
    """Invariants of a direct product of FACTORS, computed factor-wise."""

    order: int
    class_sizes: tuple[int, ...]
    degrees: tuple[int, ...]
    exponent: int
    derived_series: tuple[int, ...]
    simple: bool

    @staticmethod
    def of(names: tuple[str, ...]) -> "Reference":
        fs = [FACTORS[n] for n in names]
        sizes, degrees = [1], [1]
        for f in fs:
            sizes = [a * b for a in sizes for b in f.class_sizes]
            degrees = [a * b for a in degrees for b in f.degrees]
        order = math.prod(sum(f.class_sizes) for f in fs)
        return Reference(
            order=order,
            class_sizes=tuple(sorted(sizes)),
            degrees=tuple(sorted(degrees)),
            exponent=math.lcm(*(f.exponent for f in fs)),
            derived_series=_derived_series(order, fs),
            simple=len(fs) == 1 and fs[0].simple,
        )

    @property
    def classes(self) -> int:
        return len(self.class_sizes)

    @property
    def prime_power_class(self) -> bool:
        """Some class other than the identity has size p^r with r >= 1."""
        return any(len(_prime_factors(s)) == 1 for s in self.class_sizes[1:])

    @property
    def two_primes(self) -> bool:
        return len(_prime_factors(self.order)) <= 2


def _prime_factors(n: int) -> set[int]:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _derived_series(order: int, fs: list[Factor]) -> tuple[int, ...]:
    """Orders of G', G'', ... as chartab reports them: stop at the first term
    equal to its predecessor (reported alone only when G' = G) or at 1."""
    series: list[int] = []
    current = order
    k = 0
    while True:
        term = math.prod(f.derived_orders[min(k, len(f.derived_orders) - 1)] for f in fs)
        if term == current:
            return tuple(series or [term])
        series.append(term)
        if term == 1:
            return tuple(series)
        current, k = term, k + 1


# -- specs ---------------------------------------------------------------------


def _cycle_string(images: list[int]) -> str:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cycle, pt = [], start
        while not seen[pt]:
            seen[pt] = True
            cycle.append(pt)
            pt = images[pt]
        out.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(out) or "()"


def relabeled_spec(names: tuple[str, ...], rng: random.Random) -> str:
    """`perm:` spec of the direct product, points relabeled by a seeded shuffle."""
    degree = sum(FACTORS[n].degree for n in names)
    sigma = list(range(degree))
    rng.shuffle(sigma)
    gens, offset = [], 0
    for n in names:
        f = FACTORS[n]
        for g in f.generators:
            images = list(range(degree))
            for i in range(f.degree):
                images[sigma[offset + i]] = sigma[offset + g[i]]
            gens.append(_cycle_string(images))
        offset += f.degree
    return f"perm:{degree}:" + ";".join(gens)


def _group_ref(names: tuple[str, ...]) -> dict:
    r = Reference.of(names)
    return {"base": "x".join(names), "order": r.order, "class_sizes": list(r.class_sizes),
            "degrees": list(r.degrees), "derived_series": list(r.derived_series),
            "simple": r.simple, "prime_power_class": r.prime_power_class,
            "two_primes": r.two_primes}


def _cli(command: str, spec: str, names: tuple[str, ...]) -> dict:
    return {"argv": [command, spec, "--format", "json"], "check": command,
            "ref": _group_ref(names)}


# -- workloads -----------------------------------------------------------------
#
# Each workload is a fixed mix repeated `rounds` times in each of the run's
# passes; the seed picks the relabelings, the free parameters (dealt by _deck)
# and the order within a pass, never the mix, so that two seeds cost about the
# same and every run with the same --seconds does the same amount of work.
# Every pass gets requests of its own (for build-fresh-manyclass, specs of its
# own), so the percentiles over all passes rest on many distinct requests.
# ROUND_SECONDS is the cost of one round of the mix at the commit that defined
# the benchmark on a 2-core x86 machine; it only converts the seconds one pass
# should take into a round count.


def _parse(name: str) -> tuple[str, ...]:
    return tuple(name.split("x"))


# Copies per round.  Members of a cost cluster (equal h, or near-equal cost)
# come in numbers that put the median and the tail rank (10 samples beyond)
# in the middle of a cluster, never on the edge between two, so that those
# order statistics do not jump between clusters from one run to the next.

# base product -> copies; h = 25..75 and exponent <= 12 throughout.  A
# table's cost depends on its relabeling (the class order changes the
# eigenspace splitting path): by up to 1.7x for the h = 54..60 products, but
# only 1.2x for D4xD4xC3.  So the tail rank sits among the D4xD4xC3 tables:
# 4 per round make 16 in a run of 4 passes, above everything else, and the
# tail is the 11th largest.  No single table carries a large share of a
# round: each D4xD4xC3 is about a fourteenth.  D4^3 (h = 125) would be a
# quarter of a round on its own.  In cost order: 20 at h = 25, 4, then 7
# around the median (which falls among the Q8xS3xC2, whose cost varies least
# with the relabeling), 16 more up to h = 60 and the 4 largest.
MANYCLASS_MIX = {
    "Q8xQ8": 7, "D4xD4": 7, "D4xQ8": 6,                          # h = 25
    "S3xS3xC3": 4, "Q8xS3xC2": 7,                                # h = 27, 30
    "S3xS3xC2xC2": 3,                                            # h = 36
    "D4xC2xC2xC2": 3,                                            # h = 40
    "D4xS3xS3": 2, "Q8xD4xC2": 2, "D4xD4xC2": 2, "D4xS3xC3": 2,  # h = 45..50
    "D4xC3xC3": 2,                                               # h = 45
    "D4xC2xC2xC3": 1, "D4xS3xC2xC2": 1, "S3xS3xC2xC3": 1,        # h = 54..60
    "D4xD4xC3": 4,                                               # h = 75
}

# spec -> copies (a prime marks a seeded relabeling); h <= 15 and exponent
# 60 or 420.  S7 is left out: one S7 table takes 3 to 4 s, too long to repeat
# within a pass.
CYCLOTOMIC_MIX = {"A7": 2, "A7'": 2, "S6": 5, "S6'": 5, "A6": 9, "A6'": 9, "S5": 8}

STRUCTURE_BASES = ("S5", "A6", "A5", "S4xS3", "D4xS3", "S4xD4", "S5xC2",
                   "A5xC3", "S4xS4", "A5xC2xC2")
STRUCTURE_COMMANDS = ("classes", "simple", "solvable")

# tables built at set-up for arith-cached, and the subgroups used for restriction
ARITH_TABLES = ("S5", "A6", "S6", "A7")
ARITH_SUBGROUPS = {"S5": "A5", "S6": "A6"}
# restrictions per round; the six from S6 (about 14 ms each) put the median
# among requests of near-equal cost
ARITH_RESTRICTIONS = {"S5": 2, "S6": 6}
CHECK_ALL_TABLES = ("S5", "A6", "A5<S5")  # order <= 360
DIHEDRAL_N = (3, 4, 5, 6, 7, 8, 9)  # dihedral-rot:<n>:<r> reps

ROUND_SECONDS = {
    "build-fresh-manyclass": 11.1,
    "build-cached-cyclotomic": 6.5,
    "arith-cached": 2.1,
    "structure-fresh": 2.2,
}

WORKLOADS = tuple(ROUND_SECONDS)


def _check_mixes() -> None:
    for base in MANYCLASS_MIX:
        r = Reference.of(_parse(base))
        if not (25 <= r.classes <= 75 and r.exponent <= 12):
            raise AssertionError(f"{base} is outside the many-class range")
    for key in CYCLOTOMIC_MIX:
        r = Reference.of((key.rstrip("'"),))
        if not (r.classes <= 15 and 60 <= r.exponent <= 420):
            raise AssertionError(f"{key} is outside the cyclotomic range")


_check_mixes()


@dataclass
class Plan:
    """A run's request list, in blocks: block k is served by the k-th pass,
    in a fresh process.  Each block holds `rounds` whole rounds of the mix."""

    workload: str
    seed: int
    blocks: list[list[dict]]
    warmup: dict
    rounds: int

    @property
    def requests(self) -> list[dict]:
        return [r for block in self.blocks for r in block]

    def spec_of(self, req: dict) -> str:
        """The group spec a request works on; for library requests, its table."""
        if "argv" in req:
            return req["argv"][1]
        return req["table"] if "table" in req else f"D{req['n']}"

    def distinct_share(self) -> float:
        return self.working_set() / len(self.requests)

    def working_set(self) -> int:
        return len({self.spec_of(r) for r in self.requests})


def build_plan(workload: str, seed: int, seconds: float, passes: int) -> Plan:
    """The request list of a run of `seconds` served in `passes` blocks."""
    if workload not in ROUND_SECONDS:
        raise ValueError(f"unknown workload {workload!r}")
    rounds = max(1, round(seconds / passes / ROUND_SECONDS[workload]))
    rng = random.Random(f"{workload}:{seed}")
    maker = {
        "build-fresh-manyclass": _manyclass,
        "build-cached-cyclotomic": _cyclotomic,
        "arith-cached": _arith,
        "structure-fresh": _structure,
    }[workload]
    blocks, warmup = maker(rng, rounds, passes)
    return Plan(workload, seed, blocks, warmup, rounds)


def _blocks(rng: random.Random, items: list, count: int) -> list[list]:
    """`items`, made round by round, cut into `count` equal blocks of whole
    rounds, each shuffled on its own."""
    size = len(items) // count
    blocks = [items[k * size:(k + 1) * size] for k in range(count)]
    for block in blocks:
        rng.shuffle(block)
    return blocks


def _fresh_spec(names: tuple[str, ...], rng: random.Random, used: set[str]) -> str:
    while True:
        spec = relabeled_spec(names, rng)
        if spec not in used:
            used.add(spec)
            return spec


def _manyclass(rng: random.Random, rounds: int, passes: int):
    used: set[str] = set()
    mix = [b for b, k in MANYCLASS_MIX.items() for _ in range(k)]
    blocks = _blocks(rng, mix * (rounds * passes), passes)
    blocks = [[_cli("table", _fresh_spec(_parse(b), rng, used), _parse(b)) for b in block]
              for block in blocks]
    # D4xS3xC2 (h = 30) is not in the mix, so its spec is outside the stream
    warm = ("D4", "S3", "C2")
    return blocks, _cli("table", _fresh_spec(warm, rng, used), warm)


def _cyclotomic(rng: random.Random, rounds: int, passes: int):
    used: set[str] = set()
    specs = {}
    for key in CYCLOTOMIC_MIX:
        base = key.rstrip("'")
        specs[key] = _fresh_spec((base,), rng, used) if key.endswith("'") else base
    mix = [k for k, n in CYCLOTOMIC_MIX.items() for _ in range(n)]
    blocks = _blocks(rng, mix * (rounds * passes), passes)
    blocks = [[_cli("table", specs[k], (k.rstrip("'"),)) for k in block] for block in blocks]
    return blocks, _cli("table", _fresh_spec(("A6",), rng, used), ("A6",))


def _structure(rng: random.Random, rounds: int, passes: int):
    used: set[str] = set()
    mix = [(c, b) for b in STRUCTURE_BASES for c in STRUCTURE_COMMANDS]
    blocks = _blocks(rng, mix * (rounds * passes), passes)
    blocks = [[_cli(c, _fresh_spec(_parse(b), rng, used), _parse(b)) for c, b in block]
              for block in blocks]
    warm = ("S4", "C2")  # order 48, not in the pool
    return blocks, _cli("classes", _fresh_spec(warm, rng, used), warm)


def _irreducible_rotations(n: int) -> list[int]:
    """r in 1..n-1 whose 2-dim rotation rep of D_n is irreducible, one per
    equivalence class r ~ -r."""
    return [r for r in range(1, (n + 1) // 2) if (2 * r) % n != 0]


def _deck(rng: random.Random, options):
    """Endless draws from `options` in seeded shuffles of the whole list, so
    that every option comes up about equally often and the cost of the mix
    barely depends on the seed."""
    while True:
        order = list(options)
        rng.shuffle(order)
        yield from order


def _arith(rng: random.Random, rounds: int, passes: int):
    h = {name: len(FACTORS[name].degrees) for name in ARITH_TABLES}
    decks: dict = {}

    def row(use: str, table: str, first: int = 0) -> int:
        """A row of `table`, from a deck of its own for each use."""
        if (use, table) not in decks:
            decks[use, table] = _deck(rng, range(first, h[table]))
        return next(decks[use, table])

    requests = []
    ortho = 0
    for _ in range(rounds * passes):
        for t in ARITH_TABLES:
            requests.append({"op": "tensor", "table": t,
                             "i": row("tensor i", t, 1), "j": row("tensor j", t, 1)})
            requests.append({"op": "symalt", "table": t, "i": row("symalt", t, 1)})
            requests.append({"op": "inner", "table": t,
                             "i": row("inner i", t), "j": row("inner j", t)})
        for parent, sub in ARITH_SUBGROUPS.items():
            for _ in range(ARITH_RESTRICTIONS[parent]):
                requests.append({"op": "restrict", "table": parent, "sub": sub,
                                 "i": row("restrict", parent)})
        for t in CHECK_ALL_TABLES:
            requests.append({"op": "check_all", "table": t})
        for _ in range(2):
            # orthogonality costs 6 to 180 ms by n, around the median, so n
            # runs through a fixed cycle and only r is seeded
            n = DIHEDRAL_N[ortho % len(DIHEDRAL_N)]
            ortho += 1
            rots = _irreducible_rotations(n)
            r1 = rng.choice(rots)
            r2 = rng.choice(rots)  # the same r means the same rep object
            requests.append({"op": "ortho", "n": n, "r1": r1, "r2": r2})
    # tensor squares on the subgroup table never occur in the stream
    return _blocks(rng, requests, passes), {"op": "tensor", "table": "A5<S5", "i": 4, "j": 4}


def mix_summary(plan: Plan) -> dict[str, int]:
    def label(r: dict) -> str:
        if "argv" in r:
            return f"{r['argv'][0]} {r['ref']['base']}"
        return f"{r['op']} {r.get('table', 'D' + str(r.get('n')))}"
    return dict(sorted(Counter(label(r) for r in plan.requests).items()))
