"""chartab: command-line front end.

Exit codes: 0 success, 1 check failure or stdout closed early, 2 usage/parse
error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .analysis import (
    burnside_class_test,
    burnside_solvability,
    check_all,
    restriction_report,
)
from .classfun import decompose, dft_cyclic, inverse_dft_cyclic, is_irreducible, plancherel_check, sym_alt_square
from .cyclo import Cyclo
from .permgroup import (
    DEFAULT_CAP,
    GroupMismatchError,
    ParseError,
    Perm,
    PermGroup,
    ResourceCapError,
    parse_group_spec,
)
from .tablegen import CharacterTable, TableConstructionError, build_character_table

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

VALUE_WIDTH = 12


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _cap_from(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("CHARTAB_CAP")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"bad CHARTAB_CAP value {env!r}", EXIT_USAGE) from exc
    return DEFAULT_CAP


def _load_group(spec: str, cap: int) -> PermGroup:
    group = parse_group_spec(spec, cap=cap)
    group.enumerate()
    return group


def _value_cell(v: Cyclo, footnotes: dict[str, str], precision: int) -> str:
    exact = v.exact_str()
    if len(exact) <= VALUE_WIDTH:
        return exact
    mark = footnotes.get(exact)
    if mark is None:
        mark = chr(ord("a") + len(footnotes) % 26) * (1 + len(footnotes) // 26)
        footnotes[exact] = mark
    return f"{v.approx_str(precision)}[{mark}]"


def _render_table_text(table: CharacterTable, precision: int) -> str:
    data = table.class_data
    footnotes: dict[str, str] = {}
    header_size = ["size"] + [str(cl.size) for cl in data.classes]
    header_rep = ["rep"] + [cl.representative.cycle_string() for cl in data.classes]
    body = []
    for i, row in enumerate(table.rows):
        body.append(
            [f"X{i + 1}"] + [_value_cell(v, footnotes, precision) for v in row.values]
        )
    grid = [header_size, header_rep] + body
    widths = [max(len(r[c]) for r in grid) for c in range(len(grid[0]))]
    lines = [f"group {table.group.spec}, order {table.group.order}, "
             f"{len(data)} classes"]
    for idx, r in enumerate(grid):
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        if idx == 1:
            lines.append("-+-".join("-" * w for w in widths))
    lines.extend(f"[{mark}] {exact}" for exact, mark in footnotes.items())
    return "\n".join(lines)


def _render_table_csv(table: CharacterTable, precision: int) -> str:
    data = table.class_data
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["", "size"] + [cl.size for cl in data.classes])
    writer.writerow(["", "rep"] + [cl.representative.cycle_string() for cl in data.classes])
    for i, row in enumerate(table.rows):
        writer.writerow([f"X{i + 1}", "exact"] + [v.exact_str() for v in row.values])
        writer.writerow(
            [f"X{i + 1}", "approx"] + [v.approx_str(precision) for v in row.values]
        )
    return buf.getvalue().rstrip("\n")


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2)


def cmd_table(args) -> int:
    group = _load_group(args.spec, _cap_from(args))
    table = build_character_table(group)
    if args.format == "json":
        print(_json_dumps(table.to_json()))
    elif args.format == "csv":
        print(_render_table_csv(table, args.precision))
    else:
        print(_render_table_text(table, args.precision))
    return EXIT_OK


def cmd_classes(args) -> int:
    group = _load_group(args.spec, _cap_from(args))
    data = group.conjugacy_classes()
    if args.format == "json":
        payload = {
            "group": group.spec,
            "order": group.order,
            "classes": [
                {
                    "rep_cycles": cl.representative.cycle_string(),
                    "size": cl.size,
                    "element_order": cl.element_order,
                }
                for cl in data.classes
            ],
        }
        print(_json_dumps(payload))
    else:
        print(f"group {group.spec}, order {group.order}, {len(data)} classes")
        for j, cl in enumerate(data.classes):
            print(
                f"class {j + 1}: size {cl.size}, element order {cl.element_order}, "
                f"rep {cl.representative.cycle_string()}"
            )
    return EXIT_OK


def cmd_check(args) -> int:
    group = _load_group(args.spec, _cap_from(args))
    table = build_character_table(group)
    report = check_all(table)
    if args.format == "json":
        print(_json_dumps(report.to_json()))
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_simple(args) -> int:
    group = _load_group(args.spec, _cap_from(args))
    report = burnside_class_test(group)
    if args.format == "json":
        payload = {
            "group": group.spec,
            "classes": [
                {"size": e.size, "factorization": e.factor_str(),
                 "prime_power": e.is_prime_power}
                for e in report.entries
            ],
            "verdict": report.verdict,
            "is_simple": report.simple,
            "witness_order": report.witness_order,
            "witness_index": report.witness_index,
        }
        print(_json_dumps(payload))
    else:
        print(f"group {group.spec}, order {group.order}")
        for line in report.lines():
            print(line)
    return EXIT_OK


def cmd_solvable(args) -> int:
    group = _load_group(args.spec, _cap_from(args))
    report = burnside_solvability(group)
    if args.format == "json":
        payload = {
            "group": group.spec,
            "order": report.order,
            "theorem_applies": report.theorem_applies,
            "solvable": report.solvable,
            "derived_series_orders": report.series_orders,
        }
        print(_json_dumps(payload))
    else:
        print(f"group {group.spec}: " + ("solvable" if report.solvable else "not solvable"))
        for line in report.lines():
            print(line)
    return EXIT_OK


def _embed_subgroup(parent: PermGroup, sub_spec: str, cap: int):
    sub = parse_group_spec(sub_spec, cap=cap)
    if sub.degree > parent.degree:
        raise ParseError(
            f"subgroup degree {sub.degree} exceeds parent degree {parent.degree}"
        )
    padded = [
        Perm(tuple(gen.images) + tuple(range(sub.degree, parent.degree)))
        for gen in sub.generators
    ]
    return parent.subgroup(padded)


def _char_by_index(table: CharacterTable, one_based: int):
    if not 1 <= one_based <= len(table.rows):
        raise CliError(
            f"character index {one_based} outside 1..{len(table.rows)}", EXIT_USAGE
        )
    return table.rows[one_based - 1]


def cmd_restrict(args) -> int:
    cap = _cap_from(args)
    group = _load_group(args.spec, cap)
    if not args.subgroup:
        raise CliError("restrict requires --subgroup", EXIT_USAGE)
    sub = _embed_subgroup(group, args.subgroup, cap)
    table = build_character_table(group)
    sub_table = build_character_table(sub.as_group())
    chi = _char_by_index(table, args.char)
    report = restriction_report(chi, sub, sub_table, char_index=args.char - 1)
    pieces = " + ".join(
        (f"{d}*" if d > 1 else "") + f"H{i + 1}"
        for i, d in enumerate(report.multiplicities)
        if d
    )
    if args.format == "json":
        payload = {
            "group": group.spec,
            "subgroup": args.subgroup,
            "char": args.char,
            "norm": report.norm,
            "case": report.case,
            "multiplicities": report.multiplicities,
            "vanishes_off_subgroup": report.vanishes_off_subgroup,
            "restricted_values": [v.to_json() for v in report.restricted.values],
        }
        print(_json_dumps(payload))
    else:
        print(f"X{args.char} of {group.spec} restricted to index-{sub.index} subgroup")
        print(f"norm = {report.norm}")
        print(f"{report.case}: {pieces}")
        print(f"vanishes off subgroup: {report.vanishes_off_subgroup}")
    return EXIT_OK


def cmd_tensor(args) -> int:
    if not args.chars:
        raise CliError("tensor requires --chars i,j", EXIT_USAGE)
    group = _load_group(args.spec, _cap_from(args))
    table = build_character_table(group)
    try:
        i_str, j_str = args.chars.split(",")
        i, j = int(i_str), int(j_str)
    except ValueError as exc:
        raise CliError(f"bad --chars value {args.chars!r}", EXIT_USAGE) from exc
    chi = _char_by_index(table, i) * _char_by_index(table, j)
    mults = decompose(chi, table)
    pieces = " + ".join(
        (f"{d}*" if d > 1 else "") + f"X{k + 1}" for k, d in enumerate(mults) if d
    )
    if args.format == "json":
        print(_json_dumps({
            "group": group.spec,
            "chars": [i, j],
            "multiplicities": mults,
            "product_values": [v.to_json() for v in chi.values],
        }))
    else:
        print(f"X{i}*X{j} = {pieces}")
        print(f"values: {[v.exact_str() for v in chi.values]}")
    return EXIT_OK


def cmd_symalt(args) -> int:
    group = _load_group(args.spec, _cap_from(args))
    table = build_character_table(group)
    chi = _char_by_index(table, args.char)
    sym, alt = sym_alt_square(chi)
    out = {}
    for label, f in (("sym", sym), ("alt", alt)):
        mults = decompose(f, table)
        pieces = " + ".join(
            (f"{d}*" if d > 1 else "") + f"X{k + 1}" for k, d in enumerate(mults) if d
        ) or "0"
        out[label] = (f, mults, pieces)
    if args.format == "json":
        print(_json_dumps({
            "group": group.spec,
            "char": args.char,
            "sym": {"values": [v.to_json() for v in sym.values],
                    "multiplicities": out["sym"][1]},
            "alt": {"values": [v.to_json() for v in alt.values],
                    "multiplicities": out["alt"][1]},
        }))
    else:
        for label, (f, mults, pieces) in out.items():
            tag = "chi_S" if label == "sym" else "chi_A"
            irr = " (irreducible)" if not f.is_zero() and is_irreducible(f) else ""
            print(f"{tag} = {pieces}{irr}")
            print(f"  values: {[v.exact_str() for v in f.values]}")
    return EXIT_OK


def cmd_fourier(args) -> int:
    try:
        n = int(args.spec)
    except ValueError as exc:
        raise CliError(f"fourier needs an integer modulus, got {args.spec!r}",
                       EXIT_USAGE) from exc
    if n < 1:
        raise CliError("fourier modulus must be >= 1", EXIT_USAGE)
    if not args.values:
        raise CliError("fourier requires --values", EXIT_USAGE)
    try:
        values = [Cyclo.from_rational(Fraction(tok)) for tok in args.values.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad --values {args.values!r}", EXIT_USAGE) from exc
    if len(values) != n:
        raise CliError(f"expected {n} values, got {len(values)}", EXIT_USAGE)
    fhat = dft_cyclic(values, n)
    back = inverse_dft_cyclic(fhat, n)
    lhs, rhs = plancherel_check(values, n)
    if args.format == "json":
        print(_json_dumps({
            "n": n,
            "transform": [v.to_json() for v in fhat],
            "inverse_roundtrip": all(a == b for a, b in zip(back, values)),
            "plancherel": {"time_side": lhs.to_json(), "freq_side": rhs.to_json()},
        }))
    else:
        for q, v in enumerate(fhat):
            print(f"fhat({q}) = {v}")
        print(f"inverse transform recovers input: {all(a == b for a, b in zip(back, values))}")
        print(f"plancherel: (1/n) sum |f|^2 = {lhs.exact_str()} = sum |fhat|^2 = {rhs.exact_str()}")
    return EXIT_OK


COMMANDS = {
    "table": cmd_table,
    "classes": cmd_classes,
    "check": cmd_check,
    "simple": cmd_simple,
    "solvable": cmd_solvable,
    "restrict": cmd_restrict,
    "tensor": cmd_tensor,
    "symalt": cmd_symalt,
    "fourier": cmd_fourier,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartab",
        description="Exact character tables of finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("spec", help="group spec (or modulus n for fourier)")
        p.add_argument("--subgroup", help="subgroup spec for restrict")
        p.add_argument("--char", type=int, default=1, help="1-based character index")
        p.add_argument("--chars", help="pair of 1-based indices, e.g. 2,3")
        p.add_argument("--values", help="comma-separated rationals for fourier")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--cap", type=int, default=None,
                       help="enumeration cap (default 100000 or CHARTAB_CAP)")
        p.add_argument("--precision", type=int, default=4,
                       help="decimal places for approximate values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early: send what is left to devnull, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GroupMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (AssertionError, TableConstructionError) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
