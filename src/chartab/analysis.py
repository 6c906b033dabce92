"""Structural theorems as executable checks.

Restriction to subgroups with the index-2 splitting corollary, regular
decomposition, Burnside's prime-power-class and p^a q^b tests, and the
all-in-one invariant suite over a finished character table.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import _modp as mp
from .classfun import (
    ClassFunction,
    decompose,
    inner_product,
    is_irreducible,
    regular_character,
    sym_alt_square,
)
from .cyclo import Cyclo
from .permgroup import GroupMismatchError, NormalSubgroup, PermGroup, Subgroup
from .tablegen import SPLIT_SEED, CharacterTable, class_constants, linear_characters


def restrict(chi: ClassFunction, h: Subgroup) -> ClassFunction:
    """View a class function of G as one of the subgroup H."""
    if h.parent is not chi.group:
        raise GroupMismatchError("subgroup does not belong to the function's group")
    fusion = h.fusion_to_parent()
    return ClassFunction(h.as_group(), [chi.values[j] for j in fusion])


class RestrictionReport:
    """Decomposition of one irreducible of G restricted to a subgroup."""

    def __init__(self, char_index: int, restricted: ClassFunction,
                 multiplicities: list[int], norm: int, case: str,
                 constituents: list[int], vanishes_off_subgroup: bool | None):
        self.char_index = char_index
        self.restricted = restricted
        self.multiplicities = multiplicities
        self.norm = norm
        self.case = case  # "irreducible" | "splits"
        self.constituents = constituents
        self.vanishes_off_subgroup = vanishes_off_subgroup

    def __repr__(self) -> str:
        names = " + ".join(f"H{i + 1}" for i in self.constituents)
        return f"RestrictionReport({self.case}: {names})"


def restriction_report(chi: ClassFunction, h: Subgroup,
                       subgroup_table: CharacterTable,
                       char_index: int = -1) -> RestrictionReport:
    """Decompose chi|_H over the subgroup's own table and verify the norm
    bound sum d_i^2 <= [G:H]; for index-2 subgroups, classify per the
    splitting dichotomy and check the off-subgroup vanishing directly."""
    if subgroup_table.group is not h.as_group():
        raise GroupMismatchError("table does not belong to the subgroup")
    restricted = restrict(chi, h)
    mults = decompose(restricted, subgroup_table)
    norm_val = inner_product(restricted, restricted)
    norm = norm_val.as_rational()
    if sum(d * d for d in mults) != norm:
        raise GroupMismatchError("multiplicities inconsistent with restriction norm")
    if norm > h.index:
        raise AssertionError(
            f"restriction norm {norm} exceeds subgroup index {h.index}"
        )
    constituents = [i for i, d in enumerate(mults) if d]
    case = "irreducible" if norm == 1 else "splits"

    # does chi vanish on every class meeting the complement of H?
    parent_classes = chi.group.conjugacy_classes().classes
    vanishes = True
    for j, cl in enumerate(parent_classes):
        if any(m not in h.element_set for m in cl.members):
            if not chi.values[j].is_zero():
                vanishes = False
                break
    if h.index == 2:
        # equality in the norm bound <=> vanishing off H
        if (norm == 2) != vanishes:
            raise AssertionError("index-2 dichotomy violated")
    return RestrictionReport(char_index, restricted, mults, norm, case,
                             constituents, vanishes)


def regular_decomposition(table: CharacterTable) -> list[int]:
    """Multiplicities of the regular character; equals the degree vector."""
    mults = decompose(regular_character(table.group), table)
    if tuple(mults) != table.degrees:
        raise AssertionError(
            f"regular character decomposed as {mults}, expected {table.degrees}"
        )
    return mults


class ClassSizeEntry:
    def __init__(self, index: int, size: int, factorization: dict[int, int]):
        self.index = index
        self.size = size
        self.factorization = factorization
        # size 1 = p^0 does not qualify; the hypothesis needs r >= 1
        self.is_prime_power = len(factorization) == 1

    def factor_str(self) -> str:
        return "*".join(
            f"{p}^{k}" if k > 1 else str(p)
            for p, k in sorted(self.factorization.items())
        ) or "1"

    def tag(self) -> str:
        if self.size == 1:
            return "size 1, skipped"
        return "prime power" if self.is_prime_power else "not a prime power"


class BurnsideClassReport:
    def __init__(self, entries: list[ClassSizeEntry], verdict: str,
                 simple: bool, witness: NormalSubgroup | None):
        self.entries = entries
        self.verdict = verdict  # "not simple" | "inconclusive"
        self.simple = simple
        self.witness = witness

    @property
    def witness_order(self) -> int | None:
        return self.witness.order if self.witness is not None else None

    @property
    def witness_index(self) -> int | None:
        return self.witness.index if self.witness is not None else None

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            out.append(
                f"class {e.index + 1}: size {e.size} = {e.factor_str()} ({e.tag()})"
            )
        out.append(f"verdict: {self.verdict}")
        if self.witness is not None:
            out.append(
                f"witness normal subgroup: order {self.witness_order}, "
                f"index {self.witness_index}"
            )
        out.append(f"is_simple: {self.simple}")
        return out


def burnside_class_test(g: PermGroup) -> BurnsideClassReport:
    """Non-simplicity from a prime-power conjugacy class (size p^r, r >= 1).

    The identity class is skipped; when any prime-power class exists the
    verdict is "not simple" and must agree with the normal-closure search,
    which also supplies the smallest witness normal subgroup either way."""
    data = g.conjugacy_classes()
    entries = [
        ClassSizeEntry(j, cl.size, mp.factorize(cl.size))
        for j, cl in enumerate(data.classes)
        if j > 0
    ]
    prime_power = any(e.is_prime_power for e in entries)
    closures = [g.normal_closure(cl.representative) for cl in data.classes[1:]]
    simple = g.order > 1 and all(c.order == g.order for c in closures)

    best = None
    for closure in closures:
        if 1 < closure.order < g.order:
            if best is None or closure.order < best.order:
                best = closure

    verdict = "not simple" if prime_power else "inconclusive"
    if prime_power and simple:
        raise AssertionError("prime-power class found in a simple group")
    if prime_power and best is None:
        raise AssertionError("non-simplicity verdict without witness subgroup")
    return BurnsideClassReport(entries, verdict, simple, best)


class SolvabilityReport:
    def __init__(self, order: int, factorization: dict[int, int],
                 theorem_applies: bool, solvable: bool, series_orders: list[int]):
        self.order = order
        self.factorization = factorization
        self.theorem_applies = theorem_applies
        self.solvable = solvable
        self.series_orders = series_orders

    def lines(self) -> list[str]:
        factor = "*".join(
            f"{p}^{k}" if k > 1 else str(p)
            for p, k in sorted(self.factorization.items())
        ) or "1"
        out = [f"order {self.order} = {factor}"]
        if self.theorem_applies:
            out.append("at most two primes divide the order: solvable by theorem")
        else:
            out.append("more than two primes divide the order: theorem not applicable")
        out.append(f"derived series orders: {self.series_orders}")
        out.append(f"solvable: {self.solvable}")
        return out


def burnside_solvability(g: PermGroup) -> SolvabilityReport:
    """Groups of order p^a q^b must be solvable; verified by derived series."""
    factorization = mp.factorize(g.order)
    applies = len(factorization) <= 2
    series = g.derived_series()
    solvable = series[-1].order == 1
    if applies and not solvable:
        raise AssertionError(
            f"group of order {g.order} with <= 2 prime factors is not solvable"
        )
    return SolvabilityReport(g.order, factorization, applies, solvable,
                             [s.order for s in series])


# -- the all-in-one verification suite -----------------------------------------


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


class CheckReport:
    def __init__(self, results: list[CheckResult]):
        self.results = results

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }


def check_all(table: CharacterTable) -> CheckReport:
    """Run the invariant suite against a finished table; failures are data."""
    group = table.group
    data = table.class_data
    h = len(data)
    order = group.order
    rows = table.rows
    results: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    add("square-table", len(rows) == h, f"{len(rows)} rows, {h} classes")

    trivial_ok = all(v == 1 for v in rows[0].values) if rows else False
    add("first-row-trivial", trivial_ok, "row 1 is the trivial character")

    degrees = table.degrees
    add(
        "degrees-ascending",
        all(degrees[i] <= degrees[i + 1] for i in range(len(degrees) - 1))
        and all(d >= 1 for d in degrees),
        f"degrees {list(degrees)}",
    )

    sq = sum(d * d for d in degrees)
    add("degree-squares-sum", sq == order, f"sum n_i^2 = {sq}, |G| = {order}")

    divisors_ok = all(order % d == 0 for d in degrees)
    add("degree-divides-order", divisors_ok, f"every n_i divides {order}")

    ortho_ok = True
    for i in range(h):
        for j in range(i, h):
            expected = 1 if i == j else 0
            if inner_product(rows[i], rows[j]) != expected:
                ortho_ok = False
    add("row-orthonormality", ortho_ok, "<chi_i, chi_j> = delta_ij exactly")

    col_ok = True
    for l in range(h):
        acc = Cyclo.zero()
        for i in range(h):
            acc = acc + rows[i].values[l] * rows[i].values[l].conj()
        if acc != Fraction(order, data.sizes[l]):
            col_ok = False
    add("column-norms", col_ok, "sum_i |chi_i(g_l)|^2 = |G| / r_l exactly")

    cross_ok = True
    for l in range(h):
        for m in range(l + 1, h):
            acc = Cyclo.zero()
            for i in range(h):
                acc = acc + rows[i].values[l] * rows[i].values[m].conj()
            if not acc.is_zero():
                cross_ok = False
    add("column-cross-orthogonality", cross_ok, "distinct columns are orthogonal")

    weighted_ok = True
    for l in range(1, h):
        acc = Cyclo.zero()
        for i in range(h):
            acc = acc + degrees[i] * rows[i].values[l]
        if not acc.is_zero():
            weighted_ok = False
    add("weighted-column-sum", weighted_ok, "sum_i n_i chi_i(s) = 0 off identity")

    derived = group.commutator_subgroup()
    index = group.order // derived.order
    n_linear = sum(1 for d in degrees if d == 1)
    lin = linear_characters(group)
    table_linear = [r for r in rows if r.values[0] == 1]
    setwise = len(lin) == len(table_linear) and all(
        any(l == t for t in table_linear) for l in lin
    )
    add(
        "linear-characters",
        n_linear == index and len(lin) == index and setwise,
        f"{n_linear} degree-1 rows, [G:G'] = {index}",
    )

    reg_mults = decompose(regular_character(group), table)
    add(
        "regular-decomposition",
        tuple(reg_mults) == degrees,
        f"regular character = sum n_i chi_i with n = {reg_mults}",
    )

    cc = class_constants(group)
    central_ok = True
    lam = [
        [
            Fraction(data.sizes[j], degrees[i]) * rows[i].values[j]
            for j in range(h)
        ]
        for i in range(h)
    ]
    for i in range(h):
        for j in range(h):
            for k in range(h):
                rhs = Cyclo.zero()
                for l in range(h):
                    if cc.a[j][k][l]:
                        rhs = rhs + cc.a[j][k][l] * lam[i][l]
                if lam[i][j] * lam[i][k] != rhs:
                    central_ok = False
    add(
        "central-character-identity",
        central_ok,
        "lambda_ij lambda_ik = sum_l a_jkl lambda_il exactly",
    )

    cols = [tuple(rows[i].values[l] for i in range(h)) for l in range(h)]
    distinct_ok = all(
        any(a != b for a, b in zip(cols[l], cols[m]))
        for l in range(h)
        for m in range(l + 1, h)
    )
    add("columns-distinct", distinct_ok, "no two classes share a column")

    inv_ok = all(
        rows[i].values[data.inverse_class[j]] == rows[i].values[j].conj()
        for i in range(h)
        for j in range(h)
    )
    add("inverse-class-conjugation", inv_ok, "chi(g^-1) = conj(chi(g))")

    real_ok = True
    for j in range(h):
        if data.inverse_class[j] == j:
            for i in range(h):
                if rows[i].values[j] != rows[i].values[j].conj():
                    real_ok = False
    add(
        "self-inverse-classes-real",
        real_ok,
        "classes conjugate to their inverse have real entries",
    )

    bound_ok = True
    for i in range(h):
        top = degrees[i]
        for j in range(h):
            if abs(rows[i].values[j].to_float()) > top + 1e-9:
                bound_ok = False
    add("value-magnitude-bound", bound_ok, "|chi(g)| <= chi(1) numerically")

    irr_ok = all(is_irreducible(r) for r in rows)
    add("rows-irreducible", irr_ok, "<chi, chi> = 1 for every row")

    rng = random.Random(SPLIT_SEED)
    symalt_ok = True
    for _ in range(3):
        coeffs = [rng.randrange(0, 3) for _ in range(h)]
        if not any(coeffs):
            coeffs[0] = 1
        chi = ClassFunction(group, [Cyclo.zero()] * h)
        for c, row in zip(coeffs, rows):
            if c:
                chi = chi + row.scaled(c)
        sym, alt = sym_alt_square(chi)
        if sym + alt != chi * chi:
            symalt_ok = False
        try:
            decompose(sym, table)
            decompose(alt, table)
        except Exception:
            symalt_ok = False
    add("sym-alt-squares", symalt_ok, "chi_S + chi_A = chi^2 on seeded characters")

    prod_ok = True
    for lin_row in [r for r in rows if r.values[0] == 1]:
        for row in rows:
            if not is_irreducible(lin_row * row):
                prod_ok = False
    add(
        "linear-twist-irreducible",
        prod_ok,
        "degree-1 twists of irreducibles stay irreducible",
    )

    if order <= 60:
        oracle_ok = True
        elements = group.elements
        member = data.member_index
        for f1, f2 in [(rows[0], rows[-1]), (rows[-1], rows[-1])]:
            brute = Cyclo.zero()
            for t in elements:
                j = member[t]
                brute = brute + f1.values[j] * f2.values[j].conj()
            brute = Fraction(1, order) * brute
            if brute != inner_product(f1, f2):
                oracle_ok = False
        add(
            "inner-product-oracle",
            oracle_ok,
            "class-weighted pairing matches element summation",
        )

    return CheckReport(results)
