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
from .cyclo import MAX_ORDER, Cyclo
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
            return non_negative_int(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
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
    header_size = ["size"] + [str(size) for size in data.sizes]
    header_rep = ["rep"] + [rep.cycle_string() for rep in data.representatives]
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
    writer.writerow(["", "size", *data.sizes])
    writer.writerow(["", "rep"] + [rep.cycle_string() for rep in data.representatives])
    for i, row in enumerate(table.rows):
        writer.writerow([f"X{i + 1}", "exact"] + [v.exact_str() for v in row.values])
        writer.writerow(
            [f"X{i + 1}", "approx"] + [v.approx_str(precision) for v in row.values]
        )
    return buf.getvalue().rstrip("\n")


def _json_dumps(payload) -> str:
    # compact separators let CPython use its C encoder; indent=2 does not
    return json.dumps(payload, separators=(",", ":"))


def classes_json(group: PermGroup) -> dict:
    """The group and its classes: `chartab classes` and a table's JSON head."""
    data = group.conjugacy_classes()
    return {
        "group": group.spec,
        "order": group.order,
        "classes": [
            {"rep_cycles": rep.cycle_string(), "size": size, "element_order": order}
            for rep, size, order in zip(data.representatives, data.sizes, data.element_orders)
        ],
    }


def _render_table_json(table: CharacterTable) -> str:
    """The table as compact JSON, its only encoder: `classes_json`, then each
    row's degree and values, each of `table.values` encoded once and each
    row joined by its cells."""
    encoded = [_json_dumps(v.to_json()) for v in table.values]
    rows = []
    for n, cells in zip(table.degrees, table.cells):
        values = ",".join(map(encoded.__getitem__, cells))
        rows.append(f'{{"degree":{_json_dumps(n)},"values":[{values}]}}')
    head = _json_dumps(classes_json(table.group))[:-1]  # without its closing brace
    return f'{head},"characters":[{",".join(rows)}]}}'


def _sum_of(mults: list[int], label: str) -> str:
    """A decomposition as text: [0, 0, 2, 0, 1] with label X is "2*X3 + X5"."""
    return " + ".join(
        (f"{d}*" if d > 1 else "") + f"{label}{k + 1}" for k, d in enumerate(mults) if d
    ) or "0"


def cmd_table(args, group: PermGroup) -> tuple[int, str]:
    table = build_character_table(group)
    if args.format == "json":
        return EXIT_OK, _render_table_json(table)
    if args.format == "csv":
        return EXIT_OK, _render_table_csv(table, args.precision)
    return EXIT_OK, _render_table_text(table, args.precision)


def cmd_classes(args, group: PermGroup) -> tuple[int, str]:
    payload = classes_json(group)
    if args.format == "json":
        return EXIT_OK, _json_dumps(payload)
    lines = [f"group {group.spec}, order {group.order}, {len(payload['classes'])} classes"]
    lines += [f"class {j}: size {cl['size']}, element order {cl['element_order']}, "
              f"rep {cl['rep_cycles']}" for j, cl in enumerate(payload["classes"], 1)]
    return EXIT_OK, "\n".join(lines)


def cmd_check(args, group: PermGroup) -> tuple[int, str]:
    report = check_all(build_character_table(group))
    text = _json_dumps(report.to_json()) if args.format == "json" else "\n".join(report.lines())
    return (EXIT_OK if report.ok else EXIT_CHECK_FAILED), text


def cmd_simple(args, group: PermGroup) -> tuple[int, str]:
    report = burnside_class_test(group)
    if args.format == "json":
        return EXIT_OK, _json_dumps({
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
        })
    return EXIT_OK, "\n".join([f"group {group.spec}, order {group.order}", *report.lines()])


def cmd_solvable(args, group: PermGroup) -> tuple[int, str]:
    report = burnside_solvability(group)
    if args.format == "json":
        return EXIT_OK, _json_dumps({
            "group": group.spec,
            "order": report.order,
            "theorem_applies": report.theorem_applies,
            "solvable": report.solvable,
            "derived_series_orders": report.series_orders,
        })
    verdict = "solvable" if report.solvable else "not solvable"
    return EXIT_OK, "\n".join([f"group {group.spec}: {verdict}", *report.lines()])


def _embed_subgroup(parent: PermGroup, sub_spec: str):
    sub = parse_group_spec(sub_spec, cap=parent.cap)
    if sub.degree > parent.degree:
        raise ParseError(
            f"subgroup degree {sub.degree} exceeds parent degree {parent.degree}"
        )
    padded = [
        Perm(gen + tuple(range(sub.degree, parent.degree)))
        for gen in sub.generators
    ]
    return parent.subgroup(padded)


def _char_by_index(table: CharacterTable, one_based: int):
    if not 1 <= one_based <= len(table.rows):
        raise CliError(
            f"character index {one_based} outside 1..{len(table.rows)}", EXIT_USAGE
        )
    return table.rows[one_based - 1]


def cmd_restrict(args, group: PermGroup) -> tuple[int, str]:
    if not args.subgroup:
        raise CliError("restrict requires --subgroup", EXIT_USAGE)
    sub = _embed_subgroup(group, args.subgroup)
    table = build_character_table(group)
    sub_table = build_character_table(sub)
    chi = _char_by_index(table, args.char)
    report = restriction_report(chi, sub, sub_table, char_index=args.char - 1)
    if args.format == "json":
        return EXIT_OK, _json_dumps({
            "group": group.spec,
            "subgroup": args.subgroup,
            "char": args.char,
            "norm": report.norm,
            "case": report.case,
            "multiplicities": report.multiplicities,
            "vanishes_off_subgroup": report.vanishes_off_subgroup,
            "restricted_values": [v.to_json() for v in report.restricted.values],
        })
    return EXIT_OK, "\n".join([
        f"X{args.char} of {group.spec} restricted to index-{sub.index} subgroup",
        f"norm = {report.norm}",
        f"{report.case}: {_sum_of(report.multiplicities, 'H')}",
        f"vanishes off subgroup: {report.vanishes_off_subgroup}",
    ])


def cmd_tensor(args, group: PermGroup) -> tuple[int, str]:
    if not args.chars:
        raise CliError("tensor requires --chars i,j", EXIT_USAGE)
    try:
        i_str, j_str = args.chars.split(",")
        i, j = int(i_str), int(j_str)
    except ValueError as exc:
        raise CliError(f"bad --chars value {args.chars!r}", EXIT_USAGE) from exc
    table = build_character_table(group)
    chi = _char_by_index(table, i) * _char_by_index(table, j)
    mults = decompose(chi, table)
    if args.format == "json":
        return EXIT_OK, _json_dumps({
            "group": group.spec,
            "chars": [i, j],
            "multiplicities": mults,
            "product_values": [v.to_json() for v in chi.values],
        })
    return EXIT_OK, (f"X{i}*X{j} = {_sum_of(mults, 'X')}\n"
                     f"values: {[v.exact_str() for v in chi.values]}")


def cmd_symalt(args, group: PermGroup) -> tuple[int, str]:
    table = build_character_table(group)
    chi = _char_by_index(table, args.char)
    sym, alt = sym_alt_square(chi)
    sym_mults, alt_mults = decompose(sym, table), decompose(alt, table)
    if args.format == "json":
        return EXIT_OK, _json_dumps({
            "group": group.spec,
            "char": args.char,
            "sym": {"values": [v.to_json() for v in sym.values],
                    "multiplicities": sym_mults},
            "alt": {"values": [v.to_json() for v in alt.values],
                    "multiplicities": alt_mults},
        })
    lines = []
    for tag, f, mults in (("chi_S", sym, sym_mults), ("chi_A", alt, alt_mults)):
        irr = " (irreducible)" if not f.is_zero() and is_irreducible(f) else ""
        lines += [f"{tag} = {_sum_of(mults, 'X')}{irr}",
                  f"  values: {[v.exact_str() for v in f.values]}"]
    return EXIT_OK, "\n".join(lines)


def cmd_fourier(args, _) -> tuple[int, str]:
    try:
        n = int(args.spec)
    except ValueError as exc:
        raise CliError(f"fourier needs an integer modulus, got {args.spec!r}",
                       EXIT_USAGE) from exc
    if not 1 <= n <= MAX_ORDER:
        raise CliError(f"fourier modulus must be in [1, {MAX_ORDER}], got {n}", EXIT_USAGE)
    if not args.values:
        raise CliError("fourier requires --values", EXIT_USAGE)
    try:
        values = [Cyclo.from_rational(Fraction(tok)) for tok in args.values.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad --values {args.values!r}", EXIT_USAGE) from exc
    if len(values) != n:
        raise CliError(f"expected {n} values, got {len(values)}", EXIT_USAGE)
    fhat = dft_cyclic(values, n)
    roundtrip = all(a == b for a, b in zip(inverse_dft_cyclic(fhat, n), values))
    lhs, rhs = plancherel_check(values, n)
    if args.format == "json":
        return EXIT_OK, _json_dumps({
            "n": n,
            "transform": [v.to_json() for v in fhat],
            "inverse_roundtrip": roundtrip,
            "plancherel": {"time_side": lhs.to_json(), "freq_side": rhs.to_json()},
        })
    return EXIT_OK, "\n".join([
        *(f"fhat({q}) = {v}" for q, v in enumerate(fhat)),
        f"inverse transform recovers input: {roundtrip}",
        f"plancherel: (1/n) sum |f|^2 = {lhs.exact_str()} = sum |fhat|^2 = {rhs.exact_str()}",
    ])


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# every option, in --help order, with its argparse settings; --format takes
# its choices from the command
OPTIONS = {
    "--subgroup": {"help": "subgroup spec"},
    "--char": {"type": int, "default": 1, "help": "1-based character index"},
    "--chars": {"help": "pair of 1-based indices, e.g. 2,3"},
    "--values": {"help": "comma-separated rationals"},
    "--format": {"default": "text"},
    "--cap": {"type": non_negative_int, "default": None,
              "help": "enumeration cap (default 100000 or CHARTAB_CAP)"},
    # a double carries at most 17 significant decimal digits: more places
    # print only noise, and each costs memory in every formatted value
    "--precision": {"type": int, "choices": range(18), "metavar": "PRECISION", "default": 4,
                    "help": "decimal places for approximate values"},
}

TEXT_JSON = ("text", "json")

# each command: its handler, its output formats, and the other options it
# reads.  A handler takes (args, group), the group of the spec when it reads
# --cap and None when it does not, prints nothing and returns (exit code, text)
COMMANDS = {
    "table": (cmd_table, ("text", "json", "csv"), {"--cap", "--precision"}),
    "classes": (cmd_classes, TEXT_JSON, {"--cap"}),
    "check": (cmd_check, TEXT_JSON, {"--cap"}),
    "simple": (cmd_simple, TEXT_JSON, {"--cap"}),
    "solvable": (cmd_solvable, TEXT_JSON, {"--cap"}),
    "restrict": (cmd_restrict, TEXT_JSON, {"--subgroup", "--char", "--cap"}),
    "tensor": (cmd_tensor, TEXT_JSON, {"--chars", "--cap"}),
    "symalt": (cmd_symalt, TEXT_JSON, {"--char", "--cap"}),
    "fourier": (cmd_fourier, TEXT_JSON, {"--values"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartab",
        description="Exact character tables of finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, formats, reads) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("spec", help="group spec (or modulus n for fourier)")
        for flag, settings in OPTIONS.items():
            if flag == "--format":
                p.add_argument(flag, choices=formats, **settings)
            elif flag in reads:
                p.add_argument(flag, **settings)
    return parser


PARSER = build_parser()  # parse_args keeps no state between calls


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    command, _, reads = COMMANDS[args.command]
    try:
        # every command that takes --cap reads a group from its spec, first
        group = _load_group(args.spec, _cap_from(args)) if "--cap" in reads else None
        code, text = command(args, group)
        print(text)
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
