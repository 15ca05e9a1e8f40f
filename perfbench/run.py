"""Benchmark for the qwstat CLI: one closed-loop client driving ``qwstat.cli.main``.

Run from the root of a qwstat checkout:

    python3 perfbench/run.py --workload verify_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each command starts after the previous one returns.  A *pass* is the
workload's command list (see workloads.py); the run repeats passes for about
``--seconds`` seconds after one untimed warm-up pass, times every command from
outside the library and checks every command's output.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of spans.py,
taken on traced passes that alternate with untraced ones.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Cold starts per run for setup_s; the first is untimed (it writes bytecode).
COLD_STARTS = 12

# name -> unit.  failed_frac and site_steps_per_s are printed but not in the
# JSON line: the first is 0 whenever the program is correct, and
# sweep_families runs no `verify`, so it has no site steps.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_ms_p50": "ms",
    "cmd_ms_p90": "ms",
    "sites_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PRINTED_ONLY = {"site_steps_per_s": "1/s", "failed_frac": "1"}


class Tally:
    """Commands attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: {error}")


def run_pass(main, commands, tally: Tally) -> tuple[float, list[float]]:
    """Run every command once; return the pass wall time and per-command seconds."""
    results = []
    t_pass = time.perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(cmd.argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # a program fault fails this command, not the run
            rc = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        results.append((time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - t_pass

    for cmd, (_dt, rc, out, err) in zip(commands, results):
        if rc != cmd.expect_rc:
            error = f"exit {rc!r}, expected {cmd.expect_rc}: {err.strip()[-200:]}"
        else:
            try:
                error = cmd.check(out)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                error = f"unreadable output: {exc!r}"
        tally.record(" ".join(cmd.argv), error)
    return wall, [r[0] for r in results]


def cold_start_s(count: int, tally: Tally) -> float:
    """Median wall time of a fresh ``python -m qwstat defaults``."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    times = []
    for i in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qwstat", "defaults"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        dt = time.perf_counter() - t0
        error = None
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        elif json.loads(proc.stdout).get("schema") != 1:
            error = "defaults printed no schema 1 document"
        tally.record("python -m qwstat defaults", error)
        if i > 0:
            times.append(dt)
    return statistics.median(times)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    from qwstat import cli

    import spans
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"env: {json.dumps(environment(args.seed), sort_keys=True)}")
    commands = workloads.build(args.workload, work, args.seed, tiny=args.tiny)
    tally = Tally()

    setup_s = None
    if not args.trace:
        setup_s = cold_start_s(2 if args.tiny else COLD_STARTS, tally)
    run_pass(cli.main, commands, tally)  # warm-up: imports, allocator, caches

    plain_walls, latencies = [], []  # latencies: one list per untraced pass
    traced_walls, recorders = [], []
    t_start = time.perf_counter()
    while True:
        if args.trace and len(recorders) < len(plain_walls):
            rec = spans.Recorder()
            rec.install()
            try:
                wall, _ = run_pass(rec.root(cli.main), commands, tally)
            finally:
                rec.uninstall()
            traced_walls.append(wall)
            recorders.append(rec)
        else:
            wall, lat = run_pass(cli.main, commands, tally)
            plain_walls.append(wall)
            latencies.append(lat)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(plain_walls + traced_walls)
        done = len(recorders) >= 1 if args.trace else True
        if done and elapsed + typical > args.seconds:
            break

    if args.trace:
        per_pass = [rec.metrics() for rec in recorders]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        units = spans.PER_LAYER
        spans.write_spans(work / "spans.csv", recorders)
        print(f"passes: {len(plain_walls)} untraced, {len(traced_walls)} traced; spans in {work / 'spans.csv'}")
    else:
        # Each command at its median over the passes, so that a slow pass on
        # a shared machine moves no metric, and the percentiles over the
        # command mix do not jump between its clusters of fast and slow kinds.
        typical = [statistics.median(col) for col in zip(*latencies)]
        ms = [dt * 1e3 for dt in typical]

        def rate(work: str) -> float:
            pairs = [(getattr(c, work), dt) for c, dt in zip(commands, typical) if getattr(c, work)]
            return sum(w for w, _ in pairs) / sum(dt for _, dt in pairs)

        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(typical),
            "cmd_ms_p50": statistics.median(ms),
            "cmd_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
            "sites_per_s": rate("sites"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"passes: {len(plain_walls)} of {len(commands)} commands")
        if any(c.site_steps for c in commands):
            print(f"{'site_steps_per_s':<36} {rate('site_steps'):.6g} {PRINTED_ONLY['site_steps_per_s']}")
    for path in work.iterdir():
        if path.name != "spans.csv":
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()

    for name, value in metrics.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    print(f"{'failed_frac':<36} {tally.failed / tally.attempted:.6g} {PRINTED_ONLY['failed_frac']}")
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload, each in its own process so its peak RSS is its own."""
    import workloads

    results = {}
    for name in workloads.BUILDERS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "qwstat" / "cli.py").is_file():
        print(f"error: no qwstat sources at {SRC}; run from a qwstat checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
