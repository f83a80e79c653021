"""Committed mutants: small faults in ``src/`` that the tier-1 suite must catch.

Each record names one exact edit of one source file and the tests that must
fail under it.  The runner copies ``src/``, ``tests/``, ``bench/`` and
``demos/`` of a tree to a temporary directory, applies one mutant there,
runs the named tests with pytest, and reports each mutant as killed,
survived, not applicable (its old text is not in the tree exactly once) or
error.  A survivor is a missing test: add the test, never drop or weaken
the mutant; a mutant that no longer applies is ported to the code that
replaced its old text.  The file has no ``test_`` prefix, so
pytest does not collect it; it uses the standard library only.

Run from the repository root::

    python3 tests/mutants.py                 # every mutant, on this tree
    python3 tests/mutants.py --tree DIR      # on another checkout
    python3 tests/mutants.py --only NAME ... # some mutants, by name
    python3 tests/mutants.py --discover NAME # full suite: which tests fail

It exits 1 when a mutant survives, errs or does not apply.  A mutant that hangs is killed
by its timeout and reported as such.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the tree
    old: str   # exact text, found exactly once
    new: str
    tests: tuple[str, ...]  # node ids that must fail


V, H, R = "src/dynrmat/verifier.py", "src/dynrmat/hecke.py", "src/dynrmat/rmatrix.py"
B, P, T = "src/dynrmat/builder.py", "src/dynrmat/params.py", "src/dynrmat/transforms.py"
C, CLI, PART = "src/dynrmat/classifier.py", "src/dynrmat/cli.py", "src/dynrmat/partition.py"
SER = "src/dynrmat/serialize.py"

MUTANTS = [
    # -- the component equations and the global defect (verifier) ----------
    Mutant("F: two factors swapped", V,
           "(dii_j, dii_0, dij_0, dji_0, dij_i, dji_i,",
           "(dii_j, dii_0, dij_0, dji_0, dji_i, dij_i,",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_03_determinant_factorization")),
    Mutant("E: index tuples reversed", V,
           "for group in ([r], [I, J], [I3, J3, K3])]",
           "for group in ([r], [I, J], [K3, J3, I3])]",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_07_gauge_moves_preserve_invariants")),
    Mutant("G0: shifted factor at the wrong stencil index", V,
           "[D(0, r, r), D(r + 1, r, r)],",
           "[D(0, r, r), D(r, r, r)],",
           ("tests/test_verifier.py::test_system_equivalent_to_global_relation",
            "tests/test_verifier.py::test_check_system_equals_oracle_on_a_one_index_non_member")),
    Mutant("E6: family dropped", V,
           "_FAMILIES = (EQUATION_TAGS[:1], EQUATION_TAGS[1:10], EQUATION_TAGS[10:])",
           "_FAMILIES = (EQUATION_TAGS[:1], EQUATION_TAGS[1:10], EQUATION_TAGS[10:15])",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_03_determinant_factorization")),
    Mutant("E6: one sign flipped", V,
           "        + D_ij_k * D_jk_0 * (D_ij_k - D_jk_0),",
           "        - D_ij_k * D_jk_0 * (D_ij_k - D_jk_0),",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_03_determinant_factorization")),
    Mutant("F9: one sign flipped", V,
           "        + dij_i * dji_0 * (dij_i - dji_0),",
           "        - dij_i * dji_0 * (dij_i - dji_0),",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_03_determinant_factorization")),
    Mutant("defect: every second product replaced by the pad", V,
           "pairs[:] = first, np.where(last > first, last, bins.size)",
           "pairs[:] = first, bins.size",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_verifier.py::test_stencil_defect_equals_the_oracle_over_every_path")),
    Mutant("defect: last left factor unshifted", V,
           "_LEFT = (((1, 2), True), ((0, 2), False), ((0, 1), True))",
           "_LEFT = (((1, 2), True), ((0, 2), False), ((0, 1), False))",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_03_determinant_factorization")),
    Mutant("defect: d_yx read for d_xy", V,
           "d_offset + (at * n + x) * n + y",
           "d_offset + (at * n + y) * n + x",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_03_determinant_factorization")),
    Mutant("invertibility: Delta_ij read for d_ij", V,
           "np.arange(n) * (n + 1), n * n + I * n + J,",
           "np.arange(n) * (n + 1), I * n + J,",
           ("tests/test_verifier.py::test_invertibility_gathers_the_whole_table_factors_bit_for_bit",
            "tests/test_verifier.py::test_invertibility_factorization")),
    Mutant("invertibility: diagonal positions off by one stride", V,
           "np.arange(n) * (n + 1), n * n + I * n + J,",
           "np.arange(n) * n, n * n + I * n + J,",
           ("tests/test_verifier.py::test_invertibility_gathers_the_whole_table_factors_bit_for_bit",
            "tests/test_verifier.py::test_factor_positions_name_the_determinant_factors_in_order")),
    Mutant("invertibility: k n^2 log 2 taken as k n log 2", V,
           "- k * n ** 2 * math.log(2))",
           "- k * n * math.log(2))",
           ("tests/test_verifier.py::test_invertibility_gathers_the_whole_table_factors_bit_for_bit",
            "tests/test_verifier.py::test_invertibility_agrees_outside_the_float_range")),
    Mutant("layouts: int32 indices, converted by every take", V,
           "np.empty((3, kept.sum() + 1), np.intp), np.empty((2, 2 * m), np.intp)",
           "np.empty((3, kept.sum() + 1), np.int32), np.empty((2, 2 * m), np.int32)",
           ("tests/test_verifier.py::test_cached_layout_arrays_are_read_only[1]",)),
    Mutant("peaks: the last entry of a tie", V,
           "arg = mags.argmax(axis=1)",
           "arg = mags.shape[1] - 1 - mags[:, ::-1].argmax(axis=1)",
           ("tests/test_verifier.py::test_an_exact_tie_in_a_family_names_its_first_entry",)),
    Mutant("invertibility: the last zero factor named", V,
           "bad = factors.index(0)",
           "bad = len(factors) - 1 - factors[::-1].index(0)",
           ("tests/test_verifier.py::test_invertibility_names_a_zero_factor[Delta_22_and_det_12]",)),
    Mutant("sample_lambda: count drawn every round", V,
           "k = min(count - len(out), max_tries - tries)",
           "k = min(count, max_tries - tries)",
           ("tests/test_verifier.py::test_sample_lambda_reference_with_pole_rejections",
            "tests/test_verifier.py::test_sample_lambda_reference_with_entry_cap_rejections")),
    Mutant("sample_lambda: entry cap ignored", V,
           "ok = np.isfinite(mags).all(axis=1) & ~(mags.max(axis=1) > entry_cap)",
           "ok = np.isfinite(mags).all(axis=1)",
           ("tests/test_verifier.py::test_sample_lambda_reference_with_entry_cap_rejections",
            "tests/test_verifier.py::test_sample_lambda_exhausts_after_exactly_max_tries_draws")),
    Mutant("sample_lambda: no chunking", V,
           "per_call = max(1, _SAMPLE_CALL_POINTS // width)",
           "per_call = max_tries",
           ("tests/test_tables.py::test_large_draw_keeps_table_calls_bounded",)),
    # -- the Hecke verdict ---------------------------------------------------
    Mutant("hecke: max(1, scale) floor restored, on unscaled tables", H,
           "    k, scale = unit_scale(tables)\n",
           "    k, scale = 0, max(1.0, float(np.abs(tables).max()))\n",
           ("tests/test_cli.py::test_hecke_on_a_member_times_2_to_minus_40_prints_what_scale_one_prints",
            "tests/test_hecke.py::test_hecke_agrees_with_the_predictor_on_random_data")),
    Mutant("hecke: single d-class tested within lim", H,
           "if d_small and (np.abs(values - values[0]) <= reach).all():",
           "if d_small and (np.abs(values - values[0]) <= lim).all():",
           ("tests/test_hecke.py::test_hecke_takes_values_within_reach_for_one_single_d_class",)),
    Mutant("hecke: plane determinant held to lim", H,
           "(pair_spread > [lim, lim * scale])",
           "(pair_spread > [lim, lim])",
           ("tests/test_hecke.py::test_hecke_holds_a_plane_determinant_to_lim_times_scale",)),
    Mutant("hecke: tie toward the later index", H,
           "(2 * count == n and not on_e1[0])",
           "(2 * count == n and on_e1[0])",
           ("tests/test_acceptance.py::test_criterion_06_spectral_classification_suite",
            "tests/test_cli.py::test_default_stdout_is_pinned[hecke]")),
    Mutant("hecke: planes checked in one order", H,
           "(on_rho & on_e2[:, ::-1]).any(axis=1).all()",
           "(on_rho & on_e2[:, ::-1])[:, 0].all()",
           ("tests/test_classifier_oracle.py::test_members_equal_the_per_entry_oracles",
            "tests/test_hecke.py::test_hecke_on_and_off_the_square_root_cut[+0]")),
    Mutant("hecke: NaN guard dropped (hangs)", H,
           "        members[head] = True\n",
           "",
           ("tests/test_hecke.py::test_a_nan_eigenvalue_is_a_cluster_of_its_own",)),
    Mutant("hecke: scalar plane's double root from the discriminant", H,
           "(s / 2, s / 2) if scalar[i][j] else ((s + disc) / 2, (s - disc) / 2))",
           "((s + disc) / 2, (s - disc) / 2))",
           ("tests/test_classifier_oracle.py::test_members_equal_the_per_entry_oracles",
            "tests/test_classifier_oracle.py::test_non_members_raise_the_first_error_of_the_per_entry_oracles")),
    # -- tables, memo and the per-entry adapter (rmatrix) --------------------
    Mutant("lookup: no memo", R,
           "        if last is not None:\n",
           "        if False:\n",
           ("tests/test_tables.py::test_one_table_call_per_cold_stencil",
            "tests/test_tables.py::test_kept_runs_and_points_are_served_without_a_table_call")),
    Mutant("memo: kept stack not replaced on a miss", R,
           "        self._last = blob, delta, d\n",
           "        self._last = last or (blob, delta, d)\n",
           ("tests/test_tables.py::test_a_stack_mixing_kept_and_new_points_is_evaluated_whole",
            "tests/test_verifier.py::test_certify_evaluates_each_sampled_stencil_once[2.0-calls1]")),
    Mutant("memo: a match across rows served", R,
           "while at > 0 and at % width:",
           "while False:",
           ("tests/test_tables.py::test_a_match_across_rows_of_the_kept_stack_is_no_run",)),
    Mutant("memo: served run one row off", R,
           "                p = at // width\n",
           "                p = at // width + 1\n",
           ("tests/test_tables.py::test_kept_runs_and_points_are_served_without_a_table_call",)),
    Mutant("lookup: one call per cold point", R,
           "delta, d = raw_tables(self, lams)",
           "delta, d = map(np.concatenate, zip(*(raw_tables(self, lams[[p]]) for p in range(len(lams)))))",
           ("tests/test_bench_contract.py::test_fresh_evaluates_a_stack_in_one_call_behind_its_own_cache",
            "tests/test_bench_contract.py::test_input_wrappers_read_their_inner_matrix_from_one_stack_call[scaled_exchange]")),
    Mutant("stacked_tables: last bad point named", R,
           "np.unravel_index(int(np.flatnonzero(~finite)[0]), finite.shape)",
           "np.unravel_index(int(np.flatnonzero(~finite)[-1]), finite.shape)",
           ("tests/test_cli.py::test_build_lambda_overflow_is_pole",
            "tests/test_tables.py::test_rational_pole_set")),
    Mutant("stacked_tables: d's finiteness not checked", R,
           "finite = np.isfinite(delta) & np.isfinite(d)",
           "finite = np.isfinite(delta)",
           ("tests/test_tables.py::test_stacked_pole_names_first_bad_point_and_pair",)),
    Mutant("unit_scale: one array scaled by a power of two, no float below 2^-1022", R,
           "np.ldexp(F, 1 - e, out=F)",
           "F *= 2.0 ** (1 - e)",
           ("tests/test_rmatrix.py::test_unit_scale_gives_the_bits_of_ldexp_at_the_ends_of_the_float_range",)),
    Mutant("stencil points from a 0/1 matrix (flips -0.0)", R,
           "    pts[..., k + 1, k] += SHIFT_STEP\n",
           "    pts = pts + SHIFT_STEP * np.eye(n + 1, n, -1)\n",
           ("tests/test_rmatrix.py::test_stencil_points_equal_shifted_bit_for_bit",)),
    Mutant("pin: not given back", R,
           "            for M, pin in saved:\n                M._pin = pin\n",
           "            for M, pin in saved:\n                M._pin = None\n",
           ("tests/test_tables.py::test_no_pin_outlives_nested_wrappers_or_a_callable_that_raises",)),
    Mutant("pin: no finally", R,
           "        finally:\n            for M, pin in saved:\n                M._pin = pin\n",
           "        except BaseException:\n            raise\n"
           "        for M, pin in saved:\n            M._pin = pin\n",
           ("tests/test_tables.py::test_no_pin_outlives_nested_wrappers_or_a_callable_that_raises",
            "tests/test_tables.py::test_writing_to_the_point_inside_a_callable_raises")),
    Mutant("pin: stack left writable", R,
           "lams.setflags(write=False)",
           "lams.setflags(write=True)",
           ("tests/test_tables.py::test_reads_at_the_pinned_point_equal_per_entry_reads_bit_for_bit",
            "tests/test_tables.py::test_writing_to_the_point_inside_a_callable_raises")),
    Mutant("pin: identity check dropped", R,
           "if pin is not None and lam is pin[0]:",
           "if pin is not None:",
           ("tests/test_tables.py::test_a_read_at_an_equal_copy_goes_through_the_inner_cache[False]",
            "tests/test_tables.py::test_a_read_at_an_equal_copy_goes_through_the_inner_cache[True]")),
    Mutant("pin: none", R,
           "M._pin = lam, stack[0][p].tolist(), stack[1][p].tolist()",
           "M._pin = None",
           ("tests/test_bench_contract.py::test_input_wrappers_read_their_inner_matrix_from_one_stack_call[scaled_exchange]",
            "tests/test_bench_contract.py::test_input_wrappers_read_their_inner_matrix_from_one_stack_call[one_sided_diagonal]")),
    # -- closed forms and 2-forms (builder, params) --------------------------
    Mutant("builder: trigonometric guard x3", B,
           "ok = np.isfinite(den) & (np.abs(den) >= POLE_GUARD)",
           "ok = np.isfinite(den) & (np.abs(den) >= 3 * POLE_GUARD)",
           ("tests/test_tables.py::test_trigonometric_pole_set",)),
    Mutant("builder: trigonometric guard /3", B,
           "ok = np.isfinite(den) & (np.abs(den) >= POLE_GUARD)",
           "ok = np.isfinite(den) & (np.abs(den) >= POLE_GUARD / 3)",
           ("tests/test_tables.py::test_trigonometric_pole_set",)),
    Mutant("builder: rational guard x3", B,
           "np.where(np.abs(den) < POLE_GUARD, np.nan, r_num / den)",
           "np.where(np.abs(den) < 3 * POLE_GUARD, np.nan, r_num / den)",
           ("tests/test_tables.py::test_rational_pole_set",
            "tests/test_tables.py::test_plain_callable_wrapper_matches_oracle")),
    Mutant("builder: class sum as lams @ member.T", B,
           "signed = sign * (member @ lams[:, :, None])[:, cls_of, 0]",
           "signed = sign * (lams @ member.T)[:, cls_of]",
           ("tests/test_tables.py::test_stacked_tables_equal_single_point_tables_bit_for_bit[trivial]",
            "tests/test_tables.py::test_stacked_tables_equal_single_point_tables_bit_for_bit[table]")),
    Mutant("2-form table: entry guard /3", P,
           "ok = np.isfinite(upper) & (np.abs(upper) >= POLE_GUARD)",
           "ok = np.isfinite(upper) & (np.abs(upper) >= POLE_GUARD / 3)",
           ("tests/test_tables.py::test_vanishing_table_entry_pole_set",
            "tests/test_tables.py::test_constant_two_form_table_equals_its_values_bit_for_bit")),
    Mutant("2-form table: no pole guard", P,
           "ok = np.isfinite(upper) & (np.abs(upper) >= POLE_GUARD)",
           "ok = np.isfinite(upper)",
           ("tests/test_serialize.py::test_table_two_form_is_read_from_one_table_and_its_poles_raise",
            "tests/test_serialize.py::test_constant_below_the_pole_guard_is_named[origin]")),
    Mutant("2-form table: numpy reciprocal", P,
           "lower[ok] = [1.0 / v for v in upper[ok].tolist()]",
           "lower[ok] = 1.0 / upper[ok]",
           ("tests/test_cli_points.py::test_stdout_is_pinned[transform_two_form_exact]",
            "tests/test_cli_points.py::test_stdout_needs_no_dense_matrix[transform_two_form_exact]")),
    Mutant("2-form table: reciprocal missing", P,
           "out[:, cols, rows] = lower",
           "out[:, cols, rows] = upper",
           ("tests/test_acceptance.py::test_criterion_02_random_family_members_solve_equations",
            "tests/test_acceptance.py::test_criterion_03_determinant_factorization")),
    Mutant("2-form table: no missing-pair check", P,
           "        check_covered(mask, missing)\n        return np.where(mask, tab, 1)",
           "        return np.where(mask, tab, 1)",
           ("tests/test_tables.py::test_constant_two_form_table_equals_its_values_bit_for_bit",)),
    Mutant("exact 2-form: shifted potentials transposed", P,
           "g = (bk.transpose(0, 2, 1) / b0[:, :, None]) * (b0[:, None, :] / bk)",
           "g = (bk / b0[:, :, None]) * (b0[:, None, :] / bk.transpose(0, 2, 1))",
           ("tests/test_acceptance.py::test_criterion_07_gauge_moves_preserve_invariants",
            "tests/test_params.py::test_exact_two_form_quotient")),
    Mutant("exact 2-form: a pole marked on one orientation", P,
           "g[bad | bad.transpose(0, 2, 1)] = np.nan",
           "g[bad] = np.nan",
           ("tests/test_tables.py::test_vanishing_potential_pole_set",)),
    Mutant("exact 2-form: a potential's PoleError propagates", P,
           "    except PoleError:\n        return complex(\"nan\")\n",
           "    except ZeroDivisionError:\n        return complex(\"nan\")\n",
           ("tests/test_params.py::test_exact_two_form_reads_a_potential_that_raises_as_a_pole",
            "tests/test_tables.py::test_exact_two_form_calls_as_the_per_slot_loop_and_gives_its_bits[2]")),
    Mutant("exact 2-form: absolute potential guard restored", P,
           "            g = (bk.transpose(0, 2, 1) / b0[:, :, None]) * (b0[:, None, :] / bk)\n",
           "            g = (bk.transpose(0, 2, 1) / b0[:, :, None]) * (b0[:, None, :] / bk)\n"
           "            small = np.abs(b0) < POLE_GUARD\n"
           "            g[small[:, :, None] | small[:, None, :] | (np.abs(bk) < POLE_GUARD)] = np.nan\n",
           ("tests/test_params.py::test_the_size_of_a_potential_makes_no_pole",
            "tests/test_tables.py::test_vanishing_potential_pole_set")),
    Mutant("exact 2-form: no potential dedupe", P,
           "row = [first.setdefault(pt.tobytes(), s) for s, pt in enumerate(pts)]",
           "row = [first.setdefault(s, s) for s, pt in enumerate(pts)]",
           ("tests/test_tables.py::test_exact_two_form_calls_each_potential_once_per_distinct_point",
            "tests/test_tables.py::test_exact_two_form_calls_only_the_potentials_a_masked_entry_reads")),
    Mutant("exact 2-form: no point reads", P,
           "reads = np.concatenate([both.any(axis=2)[:, None], both], axis=1)",
           "reads = np.concatenate([np.zeros_like(both[:, :1]), both], axis=1)",
           ("tests/test_bench_contract.py::test_input_wrappers_equal_a_per_entry_reference[exact]",
            "tests/test_params.py::test_exact_two_form_quotient")),
    Mutant("exact 2-form: one mask orientation only", P,
           "both = mask | mask.transpose(0, 2, 1)",
           "both = mask",
           ("tests/test_params.py::test_exact_two_form_quotient",
            "tests/test_params.py::test_quadratic_two_form_has_no_spurious_overflow_pole")),
    # -- transforms -----------------------------------------------------------
    Mutant("twist: mask on all pairs", T,
           "        mask = d != 0\n",
           "        mask = np.ones_like(d, dtype=bool)\n",
           ("tests/test_tables.py::test_vanishing_potential_pole_set",)),
    Mutant("contract: through R.tables", T,
           "delta, d = raw_tables(R, full)",
           "delta, d = R.stacked_tables(full)",
           ("tests/test_tables.py::test_contraction_drops_a_pole_pair",
            "tests/test_transforms.py::test_contract_full_and_single")),
    # -- the classifier and the CLI -------------------------------------------
    Mutant("equivalences: transitivity check dropped", C,
           "    for cls in classes:\n",
           "    for cls in ():\n",
           ("tests/test_classifier.py::test_build_equivalences_names_the_broken_relation[d]",
            "tests/test_classifier.py::test_build_equivalences_names_the_broken_relation[exchange]")),
    Mutant("equivalences: straddle check dropped", C,
           "        if len({dc_of[i] for i in cls}) != 1:",
           "        if False:",
           ("tests/test_classifier.py::test_build_equivalences_names_the_broken_relation[straddle]",)),
    Mutant("recovered 2-form: eager datum check dropped", C,
           "        check_datum(base.partition, base)\n        self.R, self.base",
           "        self.R, self.base",
           ("tests/test_classifier.py::test_recovered_two_form_rejects_what_build_rejects_before_building",)),
    Mutant("recovered 2-form: bare built eagerly", C,
           "        check_datum(base.partition, base)\n        self.R, self.base",
           "        self.__dict__['bare'] = build(base.partition, base)\n        self.R, self.base",
           ("tests/test_classifier.py::test_recovered_two_form_builds_the_bare_datum_on_first_read",)),
    Mutant("recovered 2-form: readers kept on the form", C,
           "    @property\n    def g(self)",
           "    @cached_property\n    def g(self)",
           ("tests/test_classifier.py::test_classification_leaves_no_reference_cycle",)),
    Mutant("recovered 2-form: no missing-pair check", C,
           "        check_covered(mask, self._missing)\n",
           "",
           ("tests/test_tables.py::test_recovered_two_form_equals_the_closure_oracle_bit_for_bit[trivial]",
            "tests/test_tables.py::test_recovered_two_form_equals_the_closure_oracle_bit_for_bit[table]")),
    Mutant("reference point: stencil always searched", C,
           "delta, d = shift_stencil(R, lam) if stencil else R.tables(lam)",
           "delta, d = shift_stencil(R, lam)",
           ("tests/test_cli.py::test_build_and_classify_check_the_reference_point_alone",)),
    Mutant("reference point: stencil never searched", C,
           "delta, d = shift_stencil(R, lam) if stencil else R.tables(lam)",
           "delta, d = R.tables(lam)",
           ("tests/test_cli.py::test_build_and_classify_check_the_reference_point_alone",)),
    Mutant("cli build: reference point by the stencil search", CLI,
           "    ref = _reference_point(R, stencil=False)\n    dt, dd = R.tables(ref)",
           "    ref = _reference_point(R)\n    dt, dd = R.tables(ref)",
           ("tests/test_cli.py::test_build_and_classify_check_the_reference_point_alone",)),
    Mutant("cli classify: reference point by the stencil search", CLI,
           "        ref = _reference_point(R, stencil=False)\n        obj[",
           "        ref = _reference_point(R)\n        obj[",
           ("tests/test_cli.py::test_build_and_classify_check_the_reference_point_alone",)),
    Mutant("build: datum not validated", B,
           "    result = validate_params(c)\n    if not result:\n        raise ParameterError(result.message)\n",
           "",
           ("tests/test_cli.py::test_datum_two_form_missing_coupled_pair_invalid[argv0]",
            "tests/test_cli.py::test_datum_two_form_missing_coupled_pair_invalid[argv5]")),
    Mutant("cli: a loaded datum validated twice", CLI,
           "    return parse_config(obj)[1]\n",
           "    build(*parse_config(obj)[1])\n    return parse_config(obj)[1]\n",
           ("tests/test_cli.py::test_each_loaded_datum_is_validated_once[argv0-1]",
            "tests/test_cli.py::test_each_loaded_datum_is_validated_once[argv1-2]")),
    # -- the sampled-matrix parser -----------------------------------------------
    Mutant("sampled parse: attribution names sample s + 1", SER,
           'raise ParameterError(f"sample {s}: {exc}") from exc',
           'raise ParameterError(f"sample {s + 1}: {exc}") from exc',
           ("tests/test_serialize.py::test_stack_parse_errors_equal_oracle[lambda]",
            "tests/test_serialize.py::test_stack_parse_errors_equal_oracle[range]")),
    Mutant("sampled parse: attribution checks heads only", SER,
           "                size, _, entries = _sample_head(sample)\n"
           "                try:\n"
           "                    columns = [list(map(get, entries)) for get in _ENTRY_FIELDS]\n"
           "                except (KeyError, TypeError) as exc:\n"
           "                    raise ParameterError(_MALFORMED) from exc\n"
           "                _entries(*columns, np.full(len(entries), size))\n",
           "                _sample_head(sample)\n",
           ("tests/test_serialize.py::test_stack_parse_errors_equal_oracle[range]",
            "tests/test_serialize.py::test_stack_parse_errors_equal_oracle[missing]",
            "tests/test_serialize.py::test_stack_parse_errors_equal_oracle[range+lambda]")),
    # -- one home for each partition fact ---------------------------------------
    Mutant("nd_mask: one orientation only", PART,
           "    return cid[:, None] != cid[None, :]\n",
           "    return np.triu(cid[:, None] != cid[None, :])\n",
           ("tests/test_partition.py::test_nd_mask_holds_both_orientations_of_the_distinct_class_pairs",
            "tests/test_acceptance.py::test_criterion_01_golden_dense_matrix")),
    Mutant("classes: the walk without its transitive step", C,
           "                    cls.add(b)\n                    walk.append(b)\n",
           "                    cls.add(b)\n",
           ("tests/test_classifier.py::test_build_equivalences_names_the_broken_relation[d]",
            "tests/test_classifier.py::test_build_equivalences_names_the_broken_relation[exchange]")),
    Mutant("2-form pole read: mask ignored", P,
           "        bad = mask & ~np.isfinite(tab)\n",
           "        bad = ~np.isfinite(tab)\n",
           ("tests/test_transforms.py::test_two_form_poles_are_read_only_where_the_mask_holds",)),
    Mutant("conventional f: swapped", P,
           "        return 0j if self.rational else 1 + 0j\n",
           "        return 1 + 0j if self.rational else 0j\n",
           ("tests/test_params.py::test_conventional_f_is_zero_in_a_zero_sum_block_and_one_otherwise",
            "tests/test_transforms.py::test_reparametrize_trig_example")),
    # -- the canonical relabelling ---------------------------------------------
    Mutant("relabel: frees after d-classes", PART,
           "DeltaClass(free=number(free), d_classes=tuple(number(c) for c in d_classes))",
           "DeltaClass(d_classes=tuple(number(c) for c in d_classes), free=number(free))",
           ("tests/test_partition.py::test_relabel_numbers_shuffled_labels_depth_first_frees_first",
            "tests/test_acceptance.py::test_criterion_04_classifier_round_trip")),
    Mutant("relabel: labels from 0", PART,
           "index_map[i] = len(index_map) + 1",
           "index_map[i] = len(index_map)",
           ("tests/test_partition.py::test_relabel_of_a_canonical_partition_is_the_identity",
            "tests/test_acceptance.py::test_criterion_04_classifier_round_trip")),
    Mutant("scale_f: single-class fork restored, f unscaled, two-class blocks taken", T,
           "        for pos, dclass in enumerate(block, start=1):\n            for cls in dclass.all_d_classes():\n"
           "                f, s =",
           "        if len(block) < 3:\n"
           "            for dclass in block:\n"
           "                for cls in dclass.all_d_classes():\n"
           "                    new_f[cls] = params.f_consts[cls]\n"
           "                    class_position.update(dict.fromkeys(cls, 1))\n"
           "            blocks.append([(dc.free, dc.d_classes) for dc in block])\n"
           "            continue\n"
           "        for pos, dclass in enumerate(block, start=1):\n            for cls in dclass.all_d_classes():\n"
           "                f, s =",
           ("tests/test_acceptance.py::test_criterion_09_class_merging_first_order",
            "tests/test_cli.py::test_transform_scale")),
]


def _copy_tree(tree: Path, into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for part in ("src", "tests", "bench", "demos"):
        shutil.copytree(tree / part, into / part, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):  # tests read both
        shutil.copy(tree / name, into / name)


def _pytest(where: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=where, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def run_mutant(tree: Path, m: Mutant | None, args: list[str]) -> tuple[str, str]:
    """(verdict, pytest's last lines) of mutant ``m`` (None: no mutant) on a
    copy of ``tree``.  A failed test or a module that no longer imports
    (pytest's exit codes 1 and 2) kills it; any other exit code is an
    error, such as a node id that does not exist."""
    source = m and (tree / m.path).read_text()
    if m and source.count(m.old) != 1:
        return "not applicable", f"old text found {source.count(m.old)} times"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        _copy_tree(tree, where)
        if m:
            (where / m.path).write_text(source.replace(m.old, m.new))
        try:
            done = _pytest(where, args)
        except subprocess.TimeoutExpired:
            return "killed (timeout)", ""
    tail = "\n".join(done.stdout.strip().splitlines()[-12:])
    return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode, "error"), tail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT)
    ap.add_argument("--only", nargs="+", default=None, metavar="NAME")
    ap.add_argument("--discover", nargs="+", default=None, metavar="NAME",
                    help="run the whole suite under these mutants and list the failing tests")
    args = ap.parse_args()
    names = args.discover or args.only
    chosen = [m for m in MUTANTS if names is None or m.name in names]
    if names is not None and len(chosen) != len(set(names)):
        ap.error(f"unknown mutant among {names}")
    start = time.perf_counter()
    if not args.discover:
        # every named test must pass on the unmutated tree
        named = sorted({t for m in chosen for t in m.tests})
        verdict, tail = run_mutant(args.tree, None, named)
        if verdict != "survived":
            print(f"the named tests do not pass unmutated:\n{tail}")
            return 1
    bad = 0
    for m in chosen:
        t0 = time.perf_counter()
        if args.discover:
            verdict, tail = run_mutant(args.tree, m, ["--maxfail=3", "-rf", "tests"])
        elif not m.tests:
            verdict, tail = "error", "no tests named"
        else:
            verdict, tail = run_mutant(args.tree, m, ["-x", *m.tests])
        print(f"{verdict:17} {time.perf_counter() - t0:6.1f} s  {m.name}", flush=True)
        failed = verdict in ("survived", "error", "not applicable")
        if args.discover or failed:
            print("    " + tail.replace("\n", "\n    "))
        bad += failed
    print(f"{len(chosen)} mutants, {bad} survived, erred or did not apply, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
