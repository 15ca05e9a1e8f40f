#!/usr/bin/env python3
"""Mutation check: each named edit of the sources must fail the tests named
for it.

For every mutant in MUTANTS the script copies ``src/`` to a temporary
directory, replaces the exact old text (which must occur once in the file)
with the new text, and runs the mutant's test selection against the copy
with ``pytest -x``.  The mutant is killed when the selection fails.  Every
mutant must be killed unless EQUIVALENT names it, with the reason no test
can tell it from the sources.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python tools/mutate.py [--out FILE] [NAME ...]

It first runs every selection once on an unmutated copy, then each mutant
(or only those named), and prints one JSON record of killed and surviving
mutants with their times (also written to FILE if given).  Exit status: 0
when every mutant outside EQUIVALENT was killed, 1 when one survived, 2 when
the table no longer matches the sources or a selection fails unmutated.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qwstat
    old: str
    new: str
    selection: tuple[str, ...]  # pytest node ids under the repository root


EVOLVE = "tests/test_evolve.py"
REDUCED = "tests/test_reduced.py"
SERIALIZE = "tests/test_serialize.py"
STATIONARY = "tests/test_stationary.py"

MUTANTS = [
    # thresholds loosened 1000x: the tests pin literal values
    Mutant("unitarity-tol-1e-9", "tolerance.py", "UNITARITY_TOL = 1e-12", "UNITARITY_TOL = 1e-9",
           ("tests/test_coin.py::TestMakeCoin::test_a_coin_1e_10_off_unitary_is_rejected",)),
    Mutant("zero-entry-tol-1e-11", "tolerance.py", "ZERO_ENTRY_TOL = 1e-14", "ZERO_ENTRY_TOL = 1e-11",
           (f"{REDUCED}::TestReducedMatrix::test_entry_of_modulus_1e_12_is_in_scope",)),
    Mutant("tan-pole-tol-1e-9", "tolerance.py", "TAN_POLE_TOL = 1e-12", "TAN_POLE_TOL = 1e-9",
           (f"{STATIONARY}::TestClosedFormA1::test_cos_eta_of_1e_11_is_no_pole",)),
    Mutant("closure-tol-x1000", "tolerance.py", "CLOSURE_TOL_PER_SITE = 32 * 2.0**-52",
           "CLOSURE_TOL_PER_SITE = 1000 * 32 * 2.0**-52",
           (f"{STATIONARY}::TestCycleRestriction::test_seam_mismatch_against_32_eps_n",)),
    Mutant("drift-tol-1e-6", "tolerance.py", "DRIFT_TOL = 1e-9", "DRIFT_TOL = 1e-6",
           (f"{EVOLVE}::TestRelativeDrift", f"{EVOLVE}::TestVerifyStationary")),
    Mutant("rtol-1e-8", "tolerance.py", "RTOL = 1e-10", "RTOL = 1e-8",
           (REDUCED, STATIONARY)),
    # raises dropped
    Mutant("non-unitary-dropped", "coin.py", "raise NonUnitary(dev, UNITARITY_TOL)", "pass",
           ("tests/test_coin.py::TestMakeCoin",)),
    Mutant("zero-entry-exclusive", "reduced.py", "if abs(a[i, j]) <= ZERO_ENTRY_TOL:",
           "if abs(a[i, j]) < ZERO_ENTRY_TOL:",
           (f"{REDUCED}::TestReducedMatrix::test_entry_of_modulus_exactly_zero_entry_tol_is_zero",)),
    # |x| - 1.0 cannot equal RTOL (see EQUIVALENT)
    Mutant("unimodular-bound-inclusive", "reduced.py", "if abs(abs(lam) - 1.0) > RTOL:",
           "if abs(abs(lam) - 1.0) >= RTOL:",
           (f"{REDUCED}::TestPaperFormulas::test_unimodular_check_fires_where_the_candidates_agree",)),
    Mutant("central-reflection-bound-exclusive", "reduced.py", "if abs(abs(a[1, 1]) - 1.0) <= RTOL:",
           "if abs(abs(a[1, 1]) - 1.0) < RTOL:", (f"{REDUCED}::TestReducedMatrix::test_central_reflection_rejected",)),
    Mutant("central-reflection-dropped", "reduced.py", "raise CentralReflection(abs(a[1, 1]))", "pass",
           (f"{REDUCED}::TestReducedMatrix",)),
    Mutant("no-cycle-closure-dropped", "stationary.py", "raise NoCycleClosure(n, momentum, mismatch)",
           "pass", (f"{STATIONARY}::TestCycleRestriction",)),
    Mutant("tan-singularity-dropped", "stationary.py",
           'raise TanSingularity(f"cos(eta) vanishes at eta = {eta!r}")', "pass",
           (f"{STATIONARY}::TestClosedFormA1",)),
    Mutant("unimodular-check-dropped", "reduced.py", "    _check_unimodular(lam1)\n", "",
           (f"{REDUCED}::TestPaperFormulas::test_unimodular_check_fires_where_the_candidates_agree",)),
    Mutant("guard-dropped", "reduced.py",
           "if np.abs(_reduced(a, m, lam) - np.diag([a1, a2])).max() > RTOL:", "if False:",
           (f"{REDUCED}::TestPaperFormulas::test_guard_fires_where_the_candidates_agree",)),
    Mutant("square-check-dropped", "reduced.py",
           "if walk_type is WalkType.TYPE2 and abs(lam1 * lam1 - a1 * a2) > RTOL:", "if False:",
           (f"{REDUCED}::TestType2::test_fourier_square_condition_fails",)),
    # the fences on a built state
    Mutant("overflow-fence-dropped", "stationary.py", "    if not finite.all():", "    if False:",
           (f"{STATIONARY}::TestType1State::test_overflowing_measure_rejected",)),
    Mutant("underflow-fence-dropped", "stationary.py",
           'raise ValueError("seeds too small: the largest squared modulus of the state underflows")',
           "pass", (f"{STATIONARY}::TestType1State::test_underflowing_measure_rejected",)),
    Mutant("norm-fence-dropped", "stationary.py", "    if not np.isfinite(norm):", "    if False:",
           (f"{STATIONARY}::TestWeightFences",)),
    Mutant("measure-of-abs-squared", "state.py",
           "np.square(self.amplitudes.view(np.float64)).sum(axis=1)",
           "(np.abs(self.amplitudes) ** 2).sum(axis=1)",
           (f"{EVOLVE}::TestRing::test_scale_and_norm_are_those_of_measure_of",)),
    Mutant("norm-squared-abs-squared", "state.py", "return float(self._weights().sum())",
           "return float((np.abs(self.amplitudes) ** 2).sum())",
           ("tests/test_state.py::test_norm_squared_is_the_sum_of_the_weights",)),
    # a Measure is finite and nonnegative: min and max propagate a NaN, max finds an inf
    Mutant("measure-finite-dropped", "state.py", "v.min() >= 0.0 and v.max() < np.inf", "v.min() >= 0.0",
           ("tests/test_state.py::test_measure_rejects_a_value_that_is_not_finite_and_nonnegative",)),
    Mutant("type2-cycle-lag-not-wrapped", "stationary.py", "padded[0] = padded[n]  # overwrites key -1",
           "pass", (f"{STATIONARY}::TestType2State",)),
    # detect_period drops a shift only when its pair at an extreme weight differs by more than tol
    Mutant("period-prune-strict", "stationary.py", "(np.abs(v[j % n] - v[k]) > tol)",
           "(np.abs(v[j % n] - v[k]) >= tol)",
           (f"{STATIONARY}::TestDetectPeriod::test_all_zero_measure_needs_exact_equality",)),
    Mutant("closed-form-equal-seeds-dropped", "stationary.py",
           "return coin.family in _TYPE1_FAMILIES and phi1 == phi3",
           "return coin.family in _TYPE1_FAMILIES", (f"{STATIONARY}::TestClosedFormApplies",)),
    # a complex array is stored row-major, so its float64 view is its [re, im] pairs
    Mutant("coin-layout-kept", "coin.py", 'dtype=np.complex128, order="C")', "dtype=np.complex128)",
           ("tests/test_coin.py::TestMakeCoin::test_a_column_major_matrix_is_accepted",)),
    Mutant("state-layout-kept", "state.py", 'dtype=np.complex128, order="C")', "dtype=np.complex128)",
           ("tests/test_state.py::test_amplitudes_are_stored_row_major",)),
    # verify's decision and report
    Mutant("verify-min-scale-dropped", "evolve.py",
           "\n        and (scale >= MIN_SCALE or not state.amplitudes.any())", "",
           (f"{EVOLVE}::TestRelativeDrift::test_underflowed_state_fails",)),
    Mutant("verify-min-scale-exclusive", "evolve.py", "scale >= MIN_SCALE", "scale > MIN_SCALE",
           (f"{EVOLVE}::TestRelativeDrift::test_a_scale_of_exactly_min_scale_passes",)),
    Mutant("verify-norm-check-dropped", "evolve.py", "math.isfinite(norm0) and ", "",
           (f"{EVOLVE}::TestRelativeDrift::test_a_squared_norm_that_overflows_fails",)),
    Mutant("norm-overflow-warns", "evolve.py",
           'with np.errstate(over="ignore", invalid="ignore"):\n        drifts, mu = _drift_trace(',
           "with np.errstate():\n        drifts, mu = _drift_trace(", (f"{EVOLVE}::TestRelativeDrift::test_a_squared_norm_that_overflows_fails",)),
    Mutant("residual-inf-warns", "evolve.py",
           'with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual, no warning',
           "with np.errstate():",
           (f"{EVOLVE}::TestEigenResidual::test_an_infinite_amplitude_gives_nan_without_a_warning",)),
    Mutant("residual-overflow-warns", "evolve.py",
           'with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual, no warning',
           'with np.errstate(invalid="ignore"):',
           (f"{EVOLVE}::TestEigenResidual::test_an_overflowing_amplitude_gives_a_non_finite_residual_without_a_warning",)),
    Mutant("leaked-not-clamped", "evolve.py", "leaked = float(np.maximum(norm0 - norm, 0.0))",
           "leaked = float(abs(norm0 - norm))",
           (f"{EVOLVE}::TestVerifyStationary::test_a_cycle_leaks_nothing_when_its_norm_rounds_up",)),
    Mutant("window-mask-off-by-one", "evolve.py", "np.arange(k0 + 1, k0 + count + 1, dtype",
           "np.arange(k0, k0 + count, dtype", (f"{EVOLVE}::TestRing::test_matches_step_loop",)),
    # step and the kernel's ring
    Mutant("step-window-zero-fill-dropped", "evolve.py", "out[-1, 0] = moved[0] if cyclic else 0.0",
           "out[-1, 0] = moved[0]", (f"{EVOLVE}::TestStep",)),
    Mutant("step-cycle-wrap-wrong", "evolve.py", "out[0, 2] = moved[-1] if cyclic else 0.0",
           "out[0, 2] = moved[0] if cyclic else 0.0", (f"{EVOLVE}::TestStep",)),
    Mutant("ring-step0-edges-not-cleared", "evolve.py", "halves[1][2][-1] = halves[1][3][-1] = 0.0",
           "pass", (f"{EVOLVE}::TestRing::test_window_edges_of_a_reused_slot_stay_zero",)),
    Mutant("ring-cycle-ghosts-swapped", "evolve.py",
           "left_edge[slot] = left_ghost[slot]\n                right_edge[slot] = right_ghost[slot]",
           "left_edge[slot] = right_ghost[slot]\n                right_edge[slot] = left_ghost[slot]",
           (f"{EVOLVE}::TestRing::test_matches_step_loop",)),
    Mutant("ring-one-array", "evolve.py", "half = k0 // block % 2", "half = 0",
           (f"{EVOLVE}::TestRing",)),
    # the tiles of large states: a halo of n_steps sites, and a merge that keeps a NaN
    Mutant("tile-halo-one-short", "evolve.py", "_tile_width(n_steps), n_steps", "_tile_width(n_steps), n_steps - 1",
           (f"{EVOLVE}::TestTiles",)),
    Mutant("tile-drift-merge-fmax", "evolve.py", "np.maximum(drifts, span_drifts, out=drifts)",
           "np.fmax(drifts, span_drifts, out=drifts)", (f"{EVOLVE}::TestTiles::test_nan_on_a_seam",)),
    # only an untiled cycle wraps; a cycle tile's halo hides what its ends do, so windows tell
    Mutant("every-span-wraps", "evolve.py", "wraps = span == amps.shape[0] and distance is None", "wraps = True",
           (f"{EVOLVE}::TestTiles::test_windows_match_the_ring_bit_for_bit",)),
    # a tile that reaches a window's edge ends there, and a tile's slots hold no stale edge cells:
    # neither changes a drift, only the final measure near the edges
    Mutant("window-tile-not-clipped", "evolve.py", "lo, hi = max(lo, 0), min(hi, n)", "pass",
           (f"{EVOLVE}::TestTiles::test_windows_match_the_ring_bit_for_bit",)),
    Mutant("window-tile-clipped-at-the-ends-only", "evolve.py", "lo < 0 or hi > n", "lo < 0 or own.stop == n",
           (f"{EVOLVE}::TestTiles::test_windows_match_the_ring_bit_for_bit",)),
    Mutant("tile-edge-cells-not-cleared", "evolve.py", "    if not wraps:\n        for _, _, left_edge",
           "    if False:\n        for _, _, left_edge", (f"{EVOLVE}::TestTiles::test_windows_match_the_ring_bit_for_bit",)),
    # a span's own sites are masked by their distance from the window's edge, not the span's
    Mutant("edge-distance-from-the-span", "evolve.py", "np.arange(first, own.stop, dtype=np.int32)",
           "np.arange(first - lo, own.stop - lo, dtype=np.int32)",
           (f"{EVOLVE}::TestTiles::test_windows_match_the_ring_bit_for_bit",)),
    Mutant("cone-not-wrapping", "evolve.py", "ring = np.concatenate((near[-1:], near, near[:1]))",
           "ring = np.concatenate((near[:1], near, near[-1:]))",
           (f"{EVOLVE}::TestEigenResidual::test_relative_site_by_site",)),
    # sweep's command line
    Mutant("one-point-grid-rejected", "cli.py", "if count < 1:", "if count <= 1:",
           ("tests/test_cli.py::TestSweep::test_one_point_grid",)),
    Mutant("name-limit-exclusive", "cli.py", "> _NAME_MAX:", ">= _NAME_MAX:",
           ("tests/test_cli.py::TestSweep::test_a_file_name_of_exactly_the_limit_is_written",)),
    # serialization
    Mutant("schema-version-2", "serialize.py", "SCHEMA_VERSION = 1", "SCHEMA_VERSION = 2",
           (SERIALIZE,)),
    Mutant("pairs-re-im-swapped", "serialize.py", "a.view(np.float64).reshape(*a.shape, 2).tolist()",
           "a.view(np.float64).reshape(*a.shape, 2)[..., ::-1].tolist()",
           tuple(f"{SERIALIZE}::test_state_round_trip_{name}" for name in (
               "preserves_measure_exactly", "on_window", "keeps_every_bit"))),
    Mutant("long-site-key-falls-through", "serialize.py",
           "except (OverflowError, ValueError):  # beyond int64", "except OverflowError:  # beyond int64",
           (f"{SERIALIZE}::test_site_key_past_the_int_digit_limit_does_not_fit",)),
    Mutant("duplicate-key-unchecked", "serialize.py", "object_pairs_hook=_unique_keys", "object_pairs_hook=dict",
           ("tests/test_cli.py::TestMisc::test_repeated_key_is_named",)),
    # the flat reader of json.dumps's layout reads a file only where the general one gives the same
    Mutant("seeds-skeleton-unchecked", "serialize.py",
           'if skeleton != _SKELETON_PREFIX + (_SKELETON_ENTRY * count)[:-2] + b"}}":', "if False:",
           (f"{SERIALIZE}::TestDumpsLayout", "tests/test_cli.py::TestMisc::test_malformed_seeds_file_in_the_dumps_layout")),
    Mutant("seeds-float-sites-accepted", "serialize.py", "if sites.dtype != np.int64:",
           'if sites.dtype.kind not in "if":',
           ("tests/test_cli.py::TestMisc::test_dumps_layout_errors", f"{SERIALIZE}::TestDumpsLayout")),
    Mutant("seeds-invalid-not-declined", "serialize.py",
           "except ValueError:  # a site named twice, or a part that is not finite\n        return None",
           "except ValueError:  # a site named twice, or a part that is not finite\n        raise",
           ("tests/test_cli.py::TestMisc::test_repeated_key_is_named",)),
    Mutant("seeds-empty-slot-unchecked", "serialize.py",
           """if b'""' in data or b"[," in data or b" ]" in data:""", "if False:",
           (f"{SERIALIZE}::TestDumpsLayout::test_a_number_out_of_its_place_is_not_read_flat",)),
    Mutant("csv-str-not-repr", "serialize.py", 'rows = [f"{x},{v!r}\\n" for x, v in zip(xs, mus)]',
           'rows = [f"{x},{v}\\n" for x, v in zip(xs, mus)]', (SERIALIZE,)),
]

_NEVER_RTOL = ("|x| - 1.0 is exact (Sterbenz) where it can come near RTOL and is then a multiple of 2^-53, "
               "and RTOL / 2^-53 is not an integer, so the difference never equals RTOL")

# Mutants no test can kill, each with the reason it changes no result.
EQUIVALENT = {
    "csv-str-not-repr": "str() of a Python float is its repr(), the shortest digits that round-trip",
    "unimodular-bound-inclusive": _NEVER_RTOL,
    "central-reflection-bound-exclusive": _NEVER_RTOL,
}


def copy_sources(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_selection(src: Path, selection, cwd: Path) -> tuple[int, str]:
    """pytest -x over the selection with the sources at src first on the
    path; its exit code and the id of the first failing test, if any.  The
    cwd holds hypothesis's example database, so the repository's stays clean."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
            "--rootdir", str(ROOT), *(str(ROOT / s) for s in selection)]
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [""]
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    if not failed:
        return done.returncode, lines[-1]
    # node ids print relative to the cwd; name them from the repository root
    return done.returncode, "tests/" + failed[0].split("tests/", 1)[1]


def apply(mutant: Mutant, src: Path) -> None:
    path = src / "qwstat" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--out", type=Path, help="also write the JSON record here")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(args.names) - known) + sorted(set(EQUIVALENT) - known)
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    mutants = [m for m in MUTANTS if not args.names or m.name in args.names]

    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qwstat-mutate-") as tmp:
        base = Path(tmp) / "base"
        src = copy_sources(base)
        probe = subprocess.run(
            [sys.executable, "-c", "import qwstat; print(qwstat.__file__)"],
            cwd=base, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(src)):
            print(f"error: the copy does not shadow qwstat: {probe.stdout or probe.stderr}", file=sys.stderr)
            return 2
        selections = list(dict.fromkeys(s for m in mutants for s in m.selection))
        code, first = run_selection(src, selections, base)
        if code != 0:
            print(f"error: the selections fail unmutated: {first}", file=sys.stderr)
            return 2

        records = []
        for number, mutant in enumerate(mutants):
            work = Path(tmp) / f"m{number}"
            src = copy_sources(work)
            apply(mutant, src)
            t0 = time.perf_counter()
            code, first = run_selection(src, mutant.selection, work)
            if code not in (0, 1):
                print(f"error: mutant {mutant.name} did not run: {first}", file=sys.stderr)
                return 2
            records.append({
                "name": mutant.name,
                "file": mutant.file,
                "killed": code == 1,
                "killed_by": first if code == 1 else None,
                "equivalent": EQUIVALENT.get(mutant.name),
                "seconds": round(time.perf_counter() - t0, 2),
            })
            shutil.rmtree(work)

    survivors = [r["name"] for r in records if not r["killed"] and r["equivalent"] is None]
    record = {
        "mutants": len(records),
        "killed": sum(r["killed"] for r in records),
        "survived_equivalent": [r["name"] for r in records if not r["killed"] and r["equivalent"]],
        "survived": survivors,
        "seconds": round(time.perf_counter() - t_start, 1),
        "records": records,
    }
    text = json.dumps(record, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
