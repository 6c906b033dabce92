"""Mutation run: small edits of `src/` that named tests must catch.

    python tests/mutants.py

Each mutant names a file under `src/chartab/`, an exact old text, the new
text that replaces it, and the tests that must fail.  For each mutant the
script copies `src/` to a temporary directory, makes the one replacement
there and runs only the named tests against the copy, which `PYTHONPATH`
puts ahead of any installed chartab.  The run fails when a mutant survives
(its tests pass), when its old text does not occur exactly once (a refactor
must carry its mutants along), or when the named tests do not all pass on an
unchanged copy first, so that no kill is a test that fails anyway.  The
tests run under the `mutants` hypothesis profile of `tests/conftest.py`,
which does not shrink a failing example, and with `--assert=plain`: a kill
is pytest's exit code 1 either way, and no test module's assertions are
rewritten for a message nobody reads.

The file is not named `test_*.py`, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/chartab/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


VALUE_INDEX = "tests/test_tablegen.py::TestValueIndex"
LIFT = "tests/test_tablegen.py::TestLift"
BUILTINS_PASS = "tests/test_analysis.py::TestCheckAll::test_builtin_tables_pass"
KRONECKER = "tests/test_cyclo.py::TestKroneckerResidues"
ORTHOGONALITY = "tests/test_reps.py::TestMatrixOrthogonality"
ORACLE = "tests/test_reps.py::TestExactOracle"
RECIPROCITY = "tests/test_analysis.py::test_frobenius_reciprocity"
CHECKS = "tests/test_analysis.py::TestCheckAll"
CORRUPT = "tests/test_analysis.py::TestCheckAllCorruptions::test_named_checks_fail"
NULLSPACE = "tests/test_tablegen.py::TestNullspaceRows"
MINPOLY = "tests/test_tablegen.py::TestMinimalPolynomial::test_annihilator_of_one_vector"
CAYLEY = "tests/test_permgroup.py::TestCayleyGraph"


# a rational column's checks in the lift: its entries' bounds, then its sum
LIFT_BOUNDS = """\
        for i in compress(count(), map(gt, map(abs, centred), degrees)):
            raise fault(j, f"row {i}", f"rational value {centred[i]} exceeds degree {degrees[i]}")
"""
LIFT_SUM = """\
        # the regular character vanishes off the identity
        if j and (total := sum(map(mul, degrees, centred))):
            raise fault(j, f"rows 0 to {len(degrees) - 1}",
                        f"sum of degree times value is {total}, not 0")
"""


def always_passes(check: str, verdict: str, *tests: str) -> Mutant:
    """check_all's named check made to pass on every table: its verdict, the
    text before the comma that ends it in the check's `add` call, becomes
    True."""
    return Mutant(f"{check}-always-passes", "analysis.py", f"{verdict},", "True,", tests)


MUTANTS = [
    # the table is its index: the constructor sorts it and makes the rows of
    # it, and takes rows or an index, never both
    Mutant("cells-of-the-unsorted-rows", "tablegen.py",
           "    cells = [cells[i] for i in order]\n",
           "",
           (f"{VALUE_INDEX}::test_an_index_in_any_order_makes_the_sorted_table",
            "tests/test_tablegen.py::TestTableInvariants::test_first_row_trivial_and_degrees_sorted")),
    Mutant("table-takes-rows-beside-an-index", "tablegen.py",
           "if (rows is None) == (index is None):",
           "if rows is None and index is None:",
           (f"{VALUE_INDEX}::test_rows_and_an_index_together_are_refused",)),
    Mutant("row-order-by-floats-alone", "tablegen.py",
           "*map(rounded.__getitem__, cells[i]), *map(held.__getitem__, cells[i])))",
           "*map(rounded.__getitem__, cells[i])))",
           (f"{VALUE_INDEX}::test_a_tie_of_floats_is_broken_by_the_held_form",)),
    Mutant("row-order-held-form-beside-each-float", "tablegen.py",
           "*map(rounded.__getitem__, cells[i]), *map(held.__getitem__, cells[i])))",
           "*zip(map(rounded.__getitem__, cells[i]), map(held.__getitem__, cells[i]))))",
           (f"{VALUE_INDEX}::test_held_forms_are_read_after_every_float",)),
    Mutant("json-joins-the-cells-of-another-row", "cli.py",
           "for n, cells in zip(table.degrees, table.cells):",
           "for n, cells in zip(table.degrees, table.cells[::-1]):",
           ("tests/test_cli.py::test_json_output_is_pinned",)),
    Mutant("pow-takes-a-float-exponent", "cyclo.py",
           "if not isinstance(n, int):  # a float or a Fraction power is not exact",
           "if isinstance(n, str):  # a float or a Fraction power is not exact",
           ("tests/test_cyclo.py::TestFieldOps::test_pow_by_a_non_int_raises_cyclo_error",)),
    Mutant("lift-keeps-a-dft-value-apart", "tablegen.py",
           "if key not in made:",
           "if True:",
           (f"{VALUE_INDEX}::test_a_built_table_holds_one_object_per_distinct_value",)),
    # the lift's checks, a column at a time, each fault raised as it is met:
    # rational classes, then the others, by index, the lowest row of a class,
    # and a rational column's sum after its entries; and the index it hands
    # the table
    Mutant("lift-skips-the-rational-column-sums", "tablegen.py",
           "(total := sum(map(mul, degrees, centred)))",
           "(total := 0)",
           (f"{LIFT}::test_wrong_rational_value_breaks_its_column",
            f"{LIFT}::test_a_rational_column_sum_is_reported_after_its_entries")),
    Mutant("lift-bound-against-the-next-row", "tablegen.py",
           "map(gt, map(abs, centred), degrees)",
           "map(gt, map(abs, centred), degrees[1:])",
           (f"{LIFT}::test_bounds_are_checked_on_entries_whose_value_is_already_made",)),
    Mutant("lift-rational-classes-from-the-last", "tablegen.py",
           "    for j in rational:\n",
           "    for j in rational[::-1]:\n",
           (f"{LIFT}::test_the_first_class_lifted_is_reported_before_a_lower_row",)),
    Mutant("lift-reports-the-highest-failing-row", "tablegen.py",
           "for i in compress(count(), map(ne, totals, degrees)):",
           "for i in reversed([*compress(count(), map(ne, totals, degrees))]):",
           (f"{LIFT}::test_the_first_class_lifted_is_reported_before_a_lower_row",)),
    Mutant("lift-column-sum-before-its-entries", "tablegen.py",
           LIFT_BOUNDS + LIFT_SUM, LIFT_SUM + LIFT_BOUNDS,
           (f"{LIFT}::test_a_rational_column_sum_is_reported_after_its_entries",)),
    Mutant("lift-cells-shifted-by-one-value", "tablegen.py",
           "CharacterTable(group, index=(values, list(zip(*numbers))))",
           "CharacterTable(group, index=(values[1:] + values[:1], list(zip(*numbers))))",
           ("tests/test_tablegen.py::TestGoldenTables::test_a5_surds",)),
    # `_modp`: one incremental row reduction, read for null spaces (rows
    # reduced last first) and for the minimal polynomial of one vector
    # (the first dependency of its Krylov sequence, of at most n + 1
    # vectors, so a reduction that hides every dependency fails and does not
    # hang)
    Mutant("elimination-adds-the-pivot-row", "_modp.py",
           "r[:len(b)] = [(x - c * y) % p for x, y in zip(r, b)]",
           "r[:len(b)] = [(x + c * y) % p for x, y in zip(r, b)]",
           (MINPOLY, f"{NULLSPACE}::test_rref_basis_of_left_null_space")),
    Mutant("krylov-multiplies-the-first-vector-again", "_modp.py",
           "            w = _row_times(w, a, p)\n",
           "            w = _row_times(v, a, p)\n",
           (MINPOLY,)),
    Mutant("null-space-rows-in-reduction-order", "_modp.py",
           "deps = list(_dependencies(a[::-1], p))[::-1]",
           "deps = list(_dependencies(a[::-1], p))",
           (f"{NULLSPACE}::test_rref_basis_of_left_null_space",
            f"{NULLSPACE}::test_each_dependent_row_is_one_of_the_identity")),
    # the linear characters, the twisted copies of the F_p split's lines and
    # the normal closures' class products
    Mutant("linear-extension-without-its-multiplier", "tablegen.py",
           "(k[l] + a * t) % e",
           "(k[l] + t) % e",
           ("tests/test_tablegen.py::TestLinearCharacters::test_matches_table_rows",)),
    Mutant("lines-without-their-twisted-copies", "tablegen.py",
           "lines.extend([a * b % p for a, b in zip(c, v)] for c in copies)",
           "lines.append(v)",
           ("tests/test_tablegen.py::TestTwistOrbits",)),
    # the split finds roots anywhere in F_p: only PSL(2,31)'s table, which the
    # closed-formula oracle checks, is built at a p above 20,000 (29,761)
    Mutant("split-misses-roots-above-20000", "tablegen.py",
           "    for lam in range(p):\n",
           "    for lam in range(min(p, 20000)):\n",
           ("tests/test_psl2_oracle.py::test_the_table_is_the_closed_formulas[31]",)),
    # one maker of class matrices: the split hands each matrix it computes to
    # the table, which keeps the split classes' matrices for check_all
    Mutant("table-hands-over-a-neighbouring-class-matrix", "tablegen.py",
           "mat = matrices[j] = class_matrix(data, j)",
           "mat = matrices[j - 1] = class_matrix(data, j)",
           (BUILTINS_PASS, "tests/test_analysis.py::test_mathieu_groups_at_the_cap_edge[M12]")),
    Mutant("table-remakes-the-split-matrices", "tablegen.py",
           "read[j] if j in read else class_matrix(self.class_data, j)",
           "class_matrix(self.class_data, j)",
           ("tests/test_analysis.py::TestCheckAll"
            "::test_central_identity_reads_only_the_split_class_matrices",)),
    Mutant("split-hands-back-no-matrices", "tablegen.py",
           "return linear + lines, matrices",
           "return linear + lines, {}",
           ("tests/test_tablegen.py::TestEigenbasis::test_split_computes_only_the_matrices_it_reads",)),
    # S holds R, the classes the split read, and more: D8 (R = [1, 3], S =
    # (1, 2, 3, 5)) and D4xC2^3
    Mutant("split-matrices-of-the-classes-read-alone", "tablegen.py",
           "for j in split_classes(lines)}",
           "for j in split_classes(lines) if j in read}",
           ("tests/test_tablegen.py::TestEigenbasis::test_split_skips_covered_class_matrices[D8-4]",
            "tests/test_analysis.py::TestCheckAll"
            "::test_central_identity_reads_only_the_split_class_matrices")),
    # a table's degrees are read off the identity class's cells when it is
    # made, and its rows when first read, once
    Mutant("degrees-read-off-the-last-cell", "tablegen.py",
           "self.values[row[0]].as_rational() for row in self.cells",
           "self.values[row[-1]].as_rational() for row in self.cells",
           (f"{VALUE_INDEX}::test_a_build_makes_no_row_until_one_is_read",)),
    Mutant("rows-made-on-every-read", "tablegen.py",
           "    @cached_property\n    def rows(",
           "    @property\n    def rows(",
           (f"{VALUE_INDEX}::test_a_build_makes_no_row_until_one_is_read",)),
    Mutant("closure-reads-the-class-products-in-one-order", "permgroup.py",
           "small, large = (k, i) if data.sizes[k] <= data.sizes[i] else (i, k)",
           "small, large = (k, i)",
           ("tests/test_analysis.py::TestBurnsideClassTest::"
            "test_s8_closures_read_each_class_product_from_the_smaller_class",)),
    # the reduction modulo Phi_e in stages, Phi_q(x^(e/q)) over a chain of q
    Mutant("stages-read-one-prime-at-a-time", "cyclo.py",
           "        q *= p\n",
           "        q = p\n",
           ("tests/test_cyclo.py::test_reduction_in_stages_matches_one_division_by_phi",)),
    # the one residue ring, `kronecker_residues`, and its readers
    Mutant("ring-conjugates-read-from-the-images", "analysis.py",
           "[list(map(conjugates.__getitem__, cells)) for cells in table.cells])",
           "[list(map(images.__getitem__, cells)) for cells in table.cells])",
           (BUILTINS_PASS,)),
    Mutant("modulus-two-to-the-w-minus-one", "cyclo.py",
           "modulus = abs((1 << (w * deg)) + sum(c << (w * j) for j, c in terms))",
           "modulus = (1 << w) - 1",
           (f"{KRONECKER}::test_the_modulus_is_phi_at_two_to_the_w", BUILTINS_PASS)),
    Mutant("conjugates-read-at-two-to-the-w", "cyclo.py",
           "conjugate += c * f << step * (-i % v.order)",
           "conjugate += c * f << step * i",
           (f"{KRONECKER}::test_the_map_is_a_ring_map_with_conjugates_at_two_to_the_minus_w",
            BUILTINS_PASS)),
    Mutant("values-not-scaled-by-d", "cyclo.py",
           "step, f = w * (order // v.order), den // v.den",
           "step, f = w * (order // v.order), 1",
           (f"{KRONECKER}::test_values_are_scaled_by_the_lcm_of_their_denominators",
            "tests/test_analysis.py::TestCheckAllCorruptions::test_named_checks_fail")),
    Mutant("w-fixed-at-64", "cyclo.py",
           "return b.bit_length() + 2",
           "return 64",
           (f"{KRONECKER}::test_a_value_plus_the_modulus_is_told_apart",)),
    Mutant("a-read-without-the-d-scale", "cyclo.py",
           "sum(map(abs, v.nums)) * (den // v.den) for v in distinct.values()",
           "sum(map(abs, v.nums)) for v in distinct.values()",
           (f"{KRONECKER}::test_values_are_scaled_by_the_lcm_of_their_denominators",)),
    Mutant("held-form-keyed-without-den", "cyclo.py",
           "held = [(v.order, v.nums, v.den) for v in values]",
           "held = [(v.order, v.nums) for v in values]",
           (f"{KRONECKER}::test_values_are_scaled_by_the_lcm_of_their_denominators",)),
    Mutant("residues-handed-back-in-distinct-order", "cyclo.py",
           "zip(*map(residues.__getitem__, held))",
           "zip(*residues.values())",
           (f"{KRONECKER}::test_equal_values_held_as_distinct_objects_share_residues",)),
    # `dot`, the one product kernel: one unreduced buffer at the lcm of its
    # terms' orders, which every product of two irrational values and every
    # sum or comparison across orders goes through
    Mutant("buffer-grown-by-a-prefix-copy", "cyclo.py",
           "grown[::stride] = buf",
           "grown[:len(buf)] = buf",
           ("tests/test_cyclo.py::TestFieldOps::test_dot_grows_its_buffer_at_each_new_order",)),
    Mutant("buffer-grown-to-one-operand-order", "cyclo.py",
           "o = math.lcm(order, ox, oy)",
           "o = math.lcm(order, oy)",
           ("tests/test_cyclo.py::TestFieldOps::test_dot_holds_the_lcm_of_its_terms_orders",)),
    Mutant("no-rescale-after-growth", "cyclo.py",
           "        if den % d:\n",
           "        elif den % d:\n",
           ("tests/test_cyclo.py::TestFieldOps::test_dot_grows_its_buffer_at_each_new_order",)),
    Mutant("buffer-not-grown-by-one-power", "cyclo.py",
           "if top > len(buf):",
           "if top > len(buf) + 1:",
           ("tests/test_cyclo.py::TestFieldOps::test_dot_grows_its_buffer_at_each_new_order",
            "tests/test_cyclo.py::test_dot_packs_seeded_dense_terms_of_one_order")),
    Mutant("packed-fold-at-stride-one", "cyclo.py",
           "buf[:top:sx] = map(add, buf[:top:sx],",
           "buf[:top] = map(add, buf[:top],",
           ("tests/test_cyclo.py::test_dot_packs_seeded_dense_terms_of_one_order",
            "tests/test_cyclo.py::test_dot_packs_dense_terms_of_one_order")),
    Mutant("packed-fold-without-the-denominator-factor", "cyclo.py",
           "map(mul, product, repeat(f))",
           "map(mul, product, repeat(1))",
           ("tests/test_cyclo.py::test_dot_packs_seeded_dense_terms_of_one_order",)),
    Mutant("mixed-order-eq-on-raw-numerators", "cyclo.py",
           "return dot((a, b), (1, -1)).is_zero()",
           "return a.den == b.den and a.nums == b.nums",
           ("tests/test_cyclo.py::TestFieldOps::test_dot_holds_the_lcm_of_its_terms_orders",
            "tests/test_cyclo.py::test_operations_across_orders_match_the_common_order")),
    # restriction and the fusion map, against induction by Frobenius
    # reciprocity between two tables built on their own
    Mutant("fusion-reads-a-neighbouring-class", "permgroup.py",
           "return [parent_index[g] for g in self.conjugacy_classes().representatives]",
           "return [parent_index[g] - 1 for g in self.conjugacy_classes().representatives]",
           (f"{RECIPROCITY}[A5<S5]",)),
    Mutant("restrict-reads-the-inverse-class", "analysis.py",
           "tuple(map(chi.values.__getitem__, fusion))",
           "tuple(chi.values[chi.group.conjugacy_classes().inverse_class[j]] for j in fusion)",
           (f"{RECIPROCITY}[M11<M12]",)),
    # every check that check_all runs can fail: a test fails when it always
    # passes
    always_passes("degrees-ascending", "degrees[0] >= 1", f"{CORRUPT}[S3-negate-row]"),
    Mutant("degrees-ascending-without-positivity", "analysis.py",
           "degrees[0] >= 1,", "abs(degrees[0]) >= 1,",
           (f"{CORRUPT}[S3-negate-row]",)),
    always_passes("rows-of-norm-one-and-distinct", "norms_ok and len(set(map(tuple, img))) == h",
                  f"{CHECKS}::test_perturbed_table_fails", f"{CORRUPT}[S3-add-one]"),
    # the rows are distinct as values: not as cells, which a table made by
    # hand numbers by object
    Mutant("norms-without-distinctness", "analysis.py",
           "norms_ok and len(set(map(tuple, img))) == h,", "norms_ok,",
           (f"{CORRUPT}[S3-duplicate-row]",)),
    Mutant("distinct-by-cells", "analysis.py",
           "len(set(map(tuple, img))) == h", "len(set(map(tuple, table.cells))) == h",
           (f"{CHECKS}::test_a_row_copied_as_values_of_its_own_fails_only_the_row_check",)),
    always_passes("central-character-identity", "central_ok",
                  "tests/test_analysis.py::TestCheckAllCorruptions"
                  "::test_swapped_classes_fail_only_the_central_identity[S6-1-2]",
                  f"{CORRUPT}[S3-swap-columns]"),
    # the central identity is one pass over every row per (j, k), which a
    # nonzero row of degree 0 can pass, so such a row is tested on its own;
    # each a_jkl other than 1 scales its column
    Mutant("central-identity-without-the-zero-degree-test", "analysis.py",
           "(not any(any(w) for d, w in zip(n, weighted) if not d)\n                  and ",
           "(",
           (f"{CHECKS}::test_a_zero_degree_row_passes_the_central_identity_only_when_zero",)),
    Mutant("central-identity-reads-every-coefficient-as-one", "analysis.py",
           "cols[l] if a == 1 else map(a.__mul__, cols[l])",
           "cols[l]",
           (f"{BUILTINS_PASS}[S3]",)),
    # the ring's bound covers the central identity's sums, which outgrow the
    # norms' where a split class and the largest class are large
    Mutant("ring-bound-without-the-central-term", "analysis.py",
           "return max(order * (a * a + d * d), 2 * big * big * a * a)",
           "return order * (a * a + d * d)",
           (f"{CHECKS}::test_the_ring_tells_every_sum_from_zero",)),
    # `classfun`'s pairing conjugates its second operand, and `decompose`
    # rejects an irrational or a negative multiplicity
    Mutant("inner-product-without-its-conjugate", "classfun.py",
           "_sized([*map(Cyclo.conj, f2.values)], sizes)",
           "_sized(list(f2.values), sizes)",
           ("tests/test_acceptance.py::test_criterion_9_oracle_equivalence",
            "tests/test_classfun.py::TestInnerProduct::test_hermitian_and_positive")),
    Mutant("decompose-reads-an-irrational-sum-as-rational", "classfun.py",
           "if not s.is_rational():",
           "if False:",
           ("tests/test_classfun.py::TestDecompose::test_rejects_non_character",
            "tests/test_classfun.py::test_decompose_rejections_on_an_irrational_table_are_pinned")),
    Mutant("decompose-accepts-a-negative-multiplicity", "classfun.py",
           "if rem or q < 0:",
           "if rem:",
           ("tests/test_classfun.py::TestDecompose::test_rejects_non_character",
            "tests/test_classfun.py::test_decompose_rejections_on_an_irrational_table_are_pinned")),
    # the split form: a pairing is one int sum over the int parts and one
    # dot over the positions of either operand's other values, and sym/alt
    # halves an int sum exactly, with the alternating square's sign
    Mutant("split-dot-drops-the-rest", "cyclo.py",
           "return dot([*map(xs.__getitem__, rest), n], [*map(ys.__getitem__, rest), 1])",
           "return _held(1, (n,), 1)",
           ("tests/test_cyclo.py::test_split_dot_on_fixed_mixes",
            "tests/test_classfun.py::test_decompose_rejections_on_an_irrational_table_are_pinned",
            "tests/test_classfun.py::test_row_pairings_match_the_per_term_code[A5]")),
    Mutant("split-dot-reads-the-rest-of-one-operand", "cyclo.py",
           "rest = sorted({*x_rest, *y_rest})",
           "rest = sorted(x_rest)",
           ("tests/test_cyclo.py::test_split_dot_on_fixed_mixes",)),
    Mutant("alt-square-of-the-ints-with-its-sign-flipped", "classfun.py",
           "alt_vals = list(map(_half, map(sub, cc, s)))",
           "alt_vals = list(map(_half, map(sub, s, cc)))",
           ("tests/test_classfun.py::TestSymAltSquare::test_s5_alternating_square",)),
    Mutant("alt-square-of-the-other-values-with-its-sign-flipped", "classfun.py",
           "alt_vals[j] = (chi_sq - sq_values[j]) * Fraction(1, 2)",
           "alt_vals[j] = (sq_values[j] - chi_sq) * Fraction(1, 2)",
           ("tests/test_classfun.py::TestSymAltSquare::test_sum_recovers_square",
            "tests/test_classfun.py::TestSymAltSquare::test_squares_from_squared_representatives[A5]")),
    Mutant("sym-alt-floors-an-odd-half", "classfun.py",
           "n >> 1 if n % 2 == 0 else Fraction(n, 2)",
           "n >> 1",
           ("tests/test_classfun.py::test_sym_alt_halves_an_odd_int_exactly",
            "tests/test_classfun.py::test_class_functions_match_the_per_term_code")),
    # `reps`: the determinant, the tree images made and certified in a ring
    # built from the generators, its fallback to exact images, every
    # identity an int equation in that ring, and two reps with equal images
    # paired as one
    Mutant("det-without-its-cofactor-signs", "reps.py",
           "[-v if j % 2 else v for j, v in enumerate(a[0])]",
           "list(a[0])",
           ("tests/test_reps.py::TestExtension::test_det_of_a_vandermonde_matrix",)),
    Mutant("non-tree-edges-never-checked", "reps.py",
           "elif not rep._checked and any(",
           "elif False and any(",
           ("tests/test_reps.py::test_first_failing_edge_is_pinned",
            "tests/test_reps.py::TestExtension::test_inconsistent_images_rejected")),
    Mutant("walk-makes-no-tree-image", "reps.py",
           "if j == len(res):",
           "if j > len(res):",
           ("tests/test_reps.py::test_full_images_are_pinned[q8-2dim]",
            f"{ORACLE}::test_an_ok_report_makes_no_exact_image")),
    Mutant("edge-without-its-d-factor", "reps.py",
           "(sum(map(mul, row, col)) - d * t) % modulus",
           "(sum(map(mul, row, col)) - t) % modulus",
           ("tests/test_reps.py::test_full_images_are_pinned",)),
    Mutant("reps-are-one-only-as-one-object", "reps.py",
           "same = rep1 is rep2 or rep1.images == rep2.images",
           "same = rep1 is rep2",
           (f"{ORTHOGONALITY}::test_equal_images_held_as_two_objects_are_one_rep",
            f"{ORTHOGONALITY}::test_a_pairing_sum_of_the_group_order_is_told_apart_from_zero")),
    Mutant("pairing-without-its-n1-factor", "reps.py",
           "if (n1 * sum(map(mul, a_vecs[i][l], b_vecs[m][j]))",
           "if (sum(map(mul, a_vecs[i][l], b_vecs[m][j]))",
           (f"{ORTHOGONALITY}::test_q8_self_pairings",)),
    Mutant("pairing-bound-without-the-group-order", "reps.py",
           "lambda a, d: n1 * order * a * a + order * d * d",
           "lambda a, d: n1 * a * a + d * d",
           (f"{ORTHOGONALITY}::test_a_pairing_sum_of_the_group_order_is_told_apart_from_zero",
            f"{ORACLE}::test_report_matches_the_exact_oracle[trivial-pair-of-order-255]")),
    Mutant("range-test-accepts-every-residue", "cyclo.py",
           "return ones << k, ~(ones * ((2 << k) - 1))",
           "return ones << k, 0",
           (f"{ORACLE}::test_first_failing_element_matches_the_exact_oracle",)),
    Mutant("tree-product-without-its-d-inverse", "reps.py",
           "[[t * inverse % modulus for t in row] for row in m]",
           "[list(row) for row in m]",
           (f"{ORACLE}::test_an_ok_report_makes_no_exact_image",)),
    Mutant("fallback-reuses-the-guessed-bound", "reps.py",
           "lambda a, d, n: stated(a, a, d))",
           "lambda a, d, n: stated(n << _coefficient_bits(d), a, d))",
           (f"{ORACLE}::test_first_failing_element_matches_the_exact_oracle",)),
    # the Cayley graph that enumeration makes and the sweep keeps as arrays,
    # the only one: `reps` walks its columns and pairs at its inverse positions
    Mutant("kept-columns-all-the-last-generator", "permgroup.py",
           'right[t] = array("i", right[t])',
           'right[t] = array("i", right[-1])',
           (f"{CAYLEY}::test_columns_and_inverse_positions_match_a_recomputation[Q8]",)),
    Mutant("kept-inverse-positions-reversed", "permgroup.py",
           'inv = array("i", inv)',
           'inv = array("i", inv[::-1])',
           (f"{CAYLEY}::test_columns_and_inverse_positions_match_a_recomputation[Q8]",
            f"{ORTHOGONALITY}::test_q8_self_pairings")),
    # a group is its degree and generators, and a table's rows are on its
    # group
    Mutant("group-equality-by-identity", "permgroup.py",
           "return self.degree == other.degree and self.generators == other.generators",
           "return False",
           ("tests/test_classfun.py::TestProductSumConjugate"
            "::test_a_group_parsed_again_meets_a_table_of_the_first_parse",
            "tests/test_analysis.py::TestRestrict::test_equal_subgroups_and_parents_meet",
            "tests/test_analysis.py::TestRestrictionReport"
            "::test_a_table_of_an_equal_subgroup_is_its_table",
            "tests/test_analysis.py::TestCheckAll::test_a_table_on_a_group_parsed_again_passes",
            f"{ORTHOGONALITY}::test_reps_of_one_group_survive_the_parse_cache_dropping_it")),
    Mutant("group-equality-reads-degree-only", "permgroup.py",
           "return self.degree == other.degree and self.generators == other.generators",
           "return self.degree == other.degree",
           ("tests/test_classfun.py::TestProductSumConjugate"
            "::test_a_group_of_the_same_degree_and_other_generators_is_refused",
            "tests/test_classfun.py::TestProductSumConjugate"
            "::test_a_group_of_the_same_degree_and_other_generators_is_unequal",
            "tests/test_analysis.py::TestRestrict"
            "::test_a_group_of_the_same_degree_and_other_generators_is_refused",
            "tests/test_analysis.py::TestRestrictionReport::test_a_table_of_another_subgroup_is_refused",
            f"{ORTHOGONALITY}::test_a_group_of_the_same_degree_and_other_generators_is_refused")),
    Mutant("table-accepts-rows-of-another-group", "tablegen.py",
           "if rows is not None and any(row.group != group for row in rows):",
           "if False:",
           ("tests/test_tablegen.py::test_a_table_with_rows_of_another_group_is_refused",)),
    # the CLI: `main` reads the group of each command that takes --cap and
    # writes what the command returns; a command checks its own options
    # before it builds anything
    Mutant("main-reads-a-group-for-every-command", "cli.py",
           'group = _load_group(args.spec, _cap_from(args)) if "--cap" in reads else None',
           "group = _load_group(args.spec, _cap_from(args))",
           ("tests/test_cli.py::TestFourier",)),
    Mutant("check-exits-zero-on-a-failed-report", "cli.py",
           "return (EXIT_OK if report.ok else EXIT_CHECK_FAILED), text",
           "return EXIT_OK, text",
           ("tests/test_cli.py::TestCheck::test_check_failure_exits_one",)),
    Mutant("tensor-builds-before-it-parses-chars", "cli.py",
           "    try:\n        i_str, j_str = args.chars.split(\",\")\n",
           "    build_character_table(group)\n    try:\n        i_str, j_str = args.chars.split(\",\")\n",
           ("tests/test_cli.py::TestRestrictTensorSymalt::test_malformed_chars_build_no_table",)),
]


def env_for(src: Path) -> dict[str, str]:
    """The environment that imports chartab from src and writes no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def pytest_run(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for the tests, importing chartab from src."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--assert=plain", "--hypothesis-profile=mutants", *tests]
    return subprocess.run(command, cwd=REPO, env=env_for(src), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_of_src(into: Path, mutant: Mutant | None = None) -> Path:
    """A copy of src/ under into, with the mutant's one replacement made."""
    src = into / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "chartab" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
    return src


def main() -> int:
    stale = [m.name for m in MUTANTS
             if (REPO / "src" / "chartab" / m.file).read_text().count(m.old) != 1]
    if stale:
        print(f"old text not found exactly once: {', '.join(stale)}")
        return 1
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_of_src(Path(tmp) / "clean")
        where = subprocess.run([sys.executable, "-c", "import chartab; print(chartab.__file__)"],
                               env=env_for(src), capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            print(f"chartab is not imported from the copy: {where.strip()}")
            return 1
        code = pytest_run(src, tests)
        if code:
            print(f"the named tests do not pass on an unchanged copy (pytest exit {code})")
            return 1
        survivors, errors = [], []
        for m in MUTANTS:
            start = time.perf_counter()
            code = pytest_run(copy_of_src(Path(tmp) / m.name, m), m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{verdict:>8}  {m.name}  ({time.perf_counter() - start:.1f} s)")
            if code == 0:
                survivors.append(m.name)
            elif code != 1:
                errors.append(m.name)
    if survivors or errors:
        print(f"survived: {survivors}; errors: {errors}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
