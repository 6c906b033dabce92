"""Structural theorems as executable checks.

Restriction to subgroups with the index-2 splitting corollary, regular
decomposition, Burnside's prime-power-class and p^a q^b tests, and the
all-in-one invariant suite over a finished character table.
"""

from __future__ import annotations

from operator import mul

from . import _modp as mp
from .classfun import ClassFunction, decompose, inner_product, regular_character
from .cyclo import kronecker_residues
from .permgroup import GroupMismatchError, NormalSubgroup, PermGroup, Subgroup
from .tablegen import CharacterTable


def _restricted(chi: ClassFunction, h: Subgroup) -> tuple[ClassFunction, list[int]]:
    """chi|_H and the fusion map it was read through, H's class j to G's
    class fusion[j]; H's parent must equal chi's group."""
    if h.parent != chi.group:
        raise GroupMismatchError("subgroup does not belong to the function's group")
    fusion = h.fusion_to_parent()
    return ClassFunction._of(h, tuple(map(chi.values.__getitem__, fusion))), fusion


def restrict(chi: ClassFunction, h: Subgroup) -> ClassFunction:
    """View a class function of G as one of the subgroup H, whose parent
    must equal G (`PermGroup`'s equality)."""
    return _restricted(chi, h)[0]


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
    splitting dichotomy and check it against the vanishing off H, which is
    read off the fusion map and the class sizes, not off the elements.
    The table's group must equal H, and H's parent chi's group
    (`PermGroup`'s equality)."""
    if subgroup_table.group != h:
        raise GroupMismatchError("table does not belong to the subgroup")
    restricted, fusion = _restricted(chi, h)
    mults = decompose(restricted, subgroup_table)
    norm_val = inner_product(restricted, restricted)
    norm = norm_val.as_rational()
    if sum(d * d for d in mults) != norm:
        raise AssertionError(
            f"multiplicities {mults} inconsistent with restriction norm {norm}"
        )
    if norm > h.index:
        raise AssertionError(
            f"restriction norm {norm} exceeds subgroup index {h.index}"
        )
    constituents = [i for i, d in enumerate(mults) if d]
    case = "irreducible" if norm == 1 else "splits"

    # does chi vanish on every class meeting the complement of H?  C_j lies
    # in H when the H-classes that fuse into it hold |C_j| elements
    inside = [0] * len(chi.values)
    for j, r in zip(fusion, h.conjugacy_classes().sizes):
        inside[j] += r
    sizes = chi.group.conjugacy_classes().sizes
    vanishes = all(v.is_zero() for v, r, r_h in zip(chi.values, sizes, inside) if r_h != r)
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


def _factor_str(factorization: dict[int, int]) -> str:
    """A factorization {prime: multiplicity} as "2^3*3*5", or "1" when empty."""
    return "*".join(
        f"{p}^{k}" if k > 1 else str(p) for p, k in sorted(factorization.items())
    ) or "1"


class ClassSizeEntry:
    def __init__(self, index: int, size: int, factorization: dict[int, int]):
        self.index = index
        self.size = size
        self.factorization = factorization
        # size 1 = p^0 does not qualify; the hypothesis needs r >= 1
        self.is_prime_power = len(factorization) == 1

    def factor_str(self) -> str:
        return _factor_str(self.factorization)

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
        ClassSizeEntry(j, size, mp.factorize(size))
        for j, size in enumerate(data.sizes)
        if j > 0
    ]
    prime_power = any(e.is_prime_power for e in entries)
    closures = [g.normal_closure(x) for x in data.representatives[1:]]
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
        out = [f"order {self.order} = {_factor_str(self.factorization)}"]
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


def _ring(table: CharacterTable) -> tuple[int, int, list[list[int]], list[list[int]]]:
    """The table's values in the ring of `kronecker_residues`: (M, D, row i
    of D chi_i(g_l) mod M, row i of D conj(chi_i(g_l)) mod M), under a
    bound B on the 1-norm of both identities `check_all` tests, in the
    coordinates zeta_L^i.  A is the largest 1-norm of a D-scaled value, so
    a product of two has 1-norm at most A^2, and the D-scaled degree
    |D n_i| <= A:
    - a norm against |G| D^2: |G| (A^2 + D^2), which also covers the 2A of
      a difference of two values, so rows are equal when their residues are;
    - the central identity, times D^2, as sum_l a_jkl r_l = r_j r_k:
      r_j r_k A^2 + |D n_i| r_j r_k A <= 2 r_j r_k A^2."""
    order, big = table.group.order, max(table.class_data.sizes)

    def bound(a: int, d: int, _: int) -> int:
        return max(order * (a * a + d * d), 2 * big * big * a * a)

    modulus, d, _, _, images, conjugates = kronecker_residues(table.values, bound)
    return (modulus, d, [list(map(images.__getitem__, cells)) for cells in table.cells],
            [list(map(conjugates.__getitem__, cells)) for cells in table.cells])


def check_all(table: CharacterTable) -> CheckReport:
    """Run the invariant suite against a finished table; failures are data.

    The three checks determine the table: when the central identity holds,
    row i is (n_i / chi(1)) chi for an irreducible chi; norm 1 and n_i >= 1
    give n_i = chi(1), and distinct rows give each irreducible once, so the
    rows are Irr(G).  Every other identity of a character table is then a
    theorem (README, "Implied checks").

    The identities are evaluated in the residue ring Z/M of
    `kronecker_residues`, built once per call under `_ring`'s bound B on
    every sum or difference the suite tests: an identity between sums of
    products of values is one int equation modulo M, and its verdict is the
    exact one.  The central-character identity is evaluated in integer form
    on the size-weighted conjugates of the norms, for the classes of
    `table.split_matrices`, which generate the centre of the group algebra,
    so only their class matrices are read, from the table, which makes only
    those its split did not compute."""
    h = len(table)
    order = table.group.order
    mod, scale, img, conj = _ring(table)
    results: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    # the constructor sorts the rows by degree first, so the degrees ascend
    # on every table and the least decides whether all are at least 1
    degrees = table.degrees
    add("degrees-ascending", degrees[0] >= 1, f"degrees {list(degrees)}")

    # |G| D^2 <chi_i, chi_i> = sum_l D chi_i(g_l) r_l D conj(chi_i(g_l)), and
    # two rows are equal exactly when their residue rows are (`_ring`)
    weighted = [[r * c % mod for r, c in zip(table.class_data.sizes, cv)] for cv in conj]
    unit = order * scale * scale % mod
    norms_ok = all(sum(map(mul, row, w)) % mod == unit for row, w in zip(img, weighted))
    add("rows-of-norm-one-and-distinct", norms_ok and len(set(map(tuple, img))) == h,
        "<chi_i, chi_i> = 1 and chi_i != chi_j for i != j exactly")

    # lambda_ij lambda_ik = sum_l a_jkl lambda_il, lambda_ij = r_j chi_i(g_j) / n_i,
    # times D^2 n_i^2 and conjugated: w_j w_k = D n_i sum_l a_jkl w_l, w =
    # weighted[i], a_jkl in row k of the class matrix M_j, D n_i = img[i][0].
    # It is checked for j in the split classes S and every k, which covers
    # every pair: the x of Z(CG) with f(xy) = f(x) f(y) for every y, f(C_l) =
    # lambda_il, form a subalgebra that holds 1 (lambda_i1 = 1) and S, and S
    # generates Z(CG).  At a zero degree every pair asks w_j w_k = 0, which
    # holds exactly when the row is zero
    identities = [
        (j, k, [l for l, a in enumerate(a_jk) if a], [a for a in a_jk if a])
        for j, m_j in table.split_matrices.items()
        for k, a_jk in enumerate(m_j)
    ]

    def central_identity_holds(n: int, w: list[int]) -> bool:
        if not n:
            return not any(w)
        return all(
            not (w[j] * w[k] - n * sum(map(mul, coeffs, map(w.__getitem__, support)))) % mod
            for j, k, support, coeffs in identities
        )

    central_ok = all(central_identity_holds(row[0], w) for row, w in zip(img, weighted))
    add(
        "central-character-identity",
        central_ok,
        "lambda_ij lambda_ik = sum_l a_jkl lambda_il exactly",
    )

    return CheckReport(results)
