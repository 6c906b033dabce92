"""Per-layer spans for chartab, recorded from outside the package.

`instrument` replaces chartab functions and methods with wrappers that record
a span per call while a request is being traced.  A name imported by value
(`from .cyclo import _reduce` in tablegen) is replaced in every chartab module
that holds it, so the wrapper sees the call wherever it is made.  Methods are
replaced on their class, where `self.method()` finds them at call time.

Spans of one request stay in memory and are folded into per-name self times
when the request ends; a span's self time is its duration minus that of its
child spans.  Code that no wrapper covers (Perm arithmetic, Fraction
arithmetic, rendering helpers such as `Cyclo.to_json`) counts toward the
nearest enclosing span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ROOT = "bench.request"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        # one request's spans: [name_id, parent_index, start_ns, end_ns]
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.request_ns = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.stack.append(0)
        self.spans.append([0, -1, time.perf_counter_ns(), 0])
        self.active = True

    def end(self) -> None:
        self.spans[0][3] = time.perf_counter_ns()
        self.active = False
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for k, (nid, _, start, end) in enumerate(self.spans):
            name = self.names[nid]
            self.self_ns[name] += end - start - child_ns[k]
            self.calls[name] += 1
        self.request_ns += self.spans[0][3] - self.spans[0][2]
        self.spans.clear()

    def wrap(self, fn, name: str, skip=None, count=None):
        """Wrap fn in a span called `name`.  `skip(*args)` true means the call
        does no work worth a span (a cached result); `count(counters, args,
        result)` records work counts inside the span."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (skip is not None and skip(*args)):
                return fn(*args, **kwargs)
            record = [nid, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, result)
                return result
            finally:
                record[3] = clock()
                stack.pop()

        return traced


def _lift_terms(counters, args, table) -> None:
    counters["tablegen.lift_dft_terms"] += len(table.rows) * sum(
        d * d for d in table.class_data.element_orders)


def _constant_products(counters, args, cc) -> None:
    counters["tablegen.constant_products"] += cc.h * sum(cc.sizes)


def _elements(counters, args, elements) -> None:
    counters["permgroup.elements_enumerated"] += len(elements)


def _mul_coeffs(counters, args, product) -> None:
    counters["cyclo.mul_coeffs"] += len(product.coeffs)


def instrument(tracer: Tracer) -> None:
    import chartab
    from chartab import _modp, analysis, classfun, cli, cyclo, permgroup, reps, tablegen
    from chartab.classfun import ClassFunction
    from chartab.cyclo import Cyclo
    from chartab.permgroup import PermGroup, Subgroup
    from chartab.reps import MatrixRep
    from chartab.tablegen import CharacterTable

    modules = (chartab, permgroup, tablegen, _modp, cyclo, classfun, analysis, reps, cli)

    def function(home, attr: str, name: str, **kw) -> None:
        original = getattr(home, attr)
        wrapped = tracer.wrap(original, name, **kw)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def method(cls, attrs: tuple[str, ...], name: str, **kw) -> None:
        wrapped = {}
        for attr in attrs:
            original = cls.__dict__[attr]
            if id(original) not in wrapped:  # aliases such as __radd__ = __add__
                wrapped[id(original)] = tracer.wrap(original, name, **kw)
            setattr(cls, attr, wrapped[id(original)])

    # permgroup: enumeration, classes, and the subgroup machinery
    method(PermGroup, ("enumerate",), "permgroup.enumerate",
           skip=lambda g: g._elements is not None, count=_elements)
    method(PermGroup, ("conjugacy_classes",), "permgroup.classes",
           skip=lambda g: g._class_data is not None)
    method(PermGroup, ("subgroup", "commutator_subgroup", "normal_closure",
                       "_normal_closure_of", "center", "derived_series",
                       "is_solvable", "is_simple"), "permgroup.subgroup")
    method(Subgroup, ("__init__",), "permgroup.subgroup")
    function(permgroup, "parse_group_spec", "permgroup.parse")

    # tablegen: the pipeline stages
    function(tablegen, "class_constants", "tablegen.class_constants",
             count=_constant_products)
    function(tablegen, "choose_prime", "tablegen.choose_prime")
    function(tablegen, "modp_eigenbasis", "tablegen.eigenbasis")
    function(tablegen, "degrees_from_eigen", "tablegen.degrees")
    function(tablegen, "lift_characters", "tablegen.lift", count=_lift_terms)
    function(tablegen, "build_character_table", "tablegen.build")
    function(tablegen, "linear_characters", "tablegen.linear_characters")
    method(CharacterTable, ("__init__",), "tablegen.table")

    # _modp: every public function
    for attr, value in list(vars(_modp).items()):
        if callable(value) and not attr.startswith("_") and getattr(value, "__module__", "") == _modp.__name__:
            function(_modp, attr, f"modp.{attr}")

    # cyclo: the arithmetic a table build or a character computation uses
    method(Cyclo, ("__mul__", "__rmul__"), "cyclo.mul", count=_mul_coeffs)
    method(Cyclo, ("__add__", "__radd__"), "cyclo.add")
    method(Cyclo, ("conj",), "cyclo.conj")
    method(Cyclo, ("__eq__",), "cyclo.eq")
    method(Cyclo, ("change_order",), "cyclo.change_order")
    method(Cyclo, ("__neg__", "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
                   "__pow__", "inverse", "galois", "to_float"), "cyclo.other")
    function(cyclo, "_reduce", "cyclo.reduce")

    # classfun
    function(classfun, "inner_product", "classfun.inner_product")
    function(classfun, "decompose", "classfun.decompose")
    function(classfun, "sym_alt_square", "classfun.sym_alt")
    for attr in ("bilinear_form", "is_irreducible", "regular_character", "trivial_character"):
        function(classfun, attr, "classfun.other")
    method(ClassFunction, ("__mul__", "__add__", "__sub__", "conjugate", "scaled"),
           "classfun.arith")

    # analysis
    function(analysis, "check_all", "analysis.check_all")
    function(analysis, "restriction_report", "analysis.restriction")
    function(analysis, "restrict", "analysis.restriction")
    function(analysis, "burnside_class_test", "analysis.burnside_class")
    function(analysis, "burnside_solvability", "analysis.solvability")
    function(analysis, "regular_decomposition", "analysis.other")

    # reps
    function(reps, "check_matrix_orthogonality", "reps.orthogonality")
    function(reps, "builtin_rep", "reps.builtin")
    function(reps, "character_of", "reps.other")
    method(MatrixRep, ("extend_to_group",), "reps.extend")

    # cli: its self time is argument parsing and rendering
    function(cli, "main", "cli.main")
