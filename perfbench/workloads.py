"""The benchmark's workloads: seeded inputs plus the qwstat commands that use them.

A workload is one *pass*: a fixed list of ``qwstat`` command lines, each with
the exit code it must return and a check of what it printed or wrote.  The
seed fixes every random input (dense Type 2 seed files, Type 1 seed pairs,
coin parameters, command order) and nothing else, so the list of commands,
and with it every call count, is the same for every seed.  The program sees
only the command lines and the files written here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# A closed form must match the constructed measure to this share of max(mu).
CLOSED_FORM_RTOL = 1e-9
# Largest eigen residual accepted from `verify` for order-one seeds.
RESIDUAL_TOL = 1e-9


@dataclass
class Command:
    """One CLI call, what it must return, and the work it stands for."""

    argv: list[str]
    check: Callable[[str], str | None]  # stdout -> error message, or None if correct
    expect_rc: int = 0
    sites: int = 0  # sites of every state the command builds
    site_steps: int = 0  # sites x steps evolved by `verify`


def _write_seeds(path: Path, rng: np.random.Generator, sites: range) -> str:
    """Dense random complex Type 2 seeds, one per site, as a seeds file."""
    z = rng.standard_normal((len(sites), 2)).tolist()
    values = {str(x): pair for x, pair in zip(sites, z)}
    path.write_text(json.dumps({"schema": 1, "values": values}), encoding="utf-8")
    return str(path)


def _complex_arg(rng: np.random.Generator) -> str:
    re, im = rng.standard_normal(2)
    return f"{re:.6f}{im:+.6f}i"


def _first_json(text: str) -> dict:
    """The JSON document a command printed, after any plain-text lines."""
    return json.loads(text[text.index("{"):])


def _closed_form_error(mu: list[float], closed: list[float]) -> str | None:
    if len(mu) != len(closed):
        return f"closed form has {len(closed)} values for {len(mu)} sites"
    if not all(math.isfinite(v) and v >= 0.0 for v in mu):
        return "measure has a negative or non-finite value"
    worst = max(abs(a - b) for a, b in zip(mu, closed))
    if not worst <= CLOSED_FORM_RTOL * max(mu):
        return f"closed form off by {worst:.3e}, max(mu) {max(mu):.3e}"
    return None


def _verify(argv: list[str], sites: int, steps: int) -> Command:
    def check(out: str) -> str | None:
        doc = json.loads(out)
        stat = doc["stationarity"]
        if doc["passed"] is not True or stat["passed"] is not True:
            return f"verify did not pass: drift {stat['max_measure_drift']!r}"
        if stat["steps"] != steps:
            return f"verify ran {stat['steps']} steps, asked for {steps}"
        if not doc["eigen_residual"] <= RESIDUAL_TOL:
            return f"eigen residual {doc['eigen_residual']!r}"
        return None

    argv = ["verify", *argv, "--steps", str(steps)]
    return Command(argv, check, sites=sites, site_steps=sites * steps)


def _classify(argv: list[str], type2_error: str | None) -> Command:
    def check(out: str) -> str | None:
        doc = _first_json(out)
        if "lambda" not in doc["type1"]:
            return f"type 1 failed: {doc['type1']}"
        got = doc["type2"].get("error")
        if got != type2_error:
            return f"type 2 error {got!r}, expected {type2_error!r}"
        return None

    rc = 0 if type2_error is None else 5
    return Command(["classify", "--json", *argv], check, expect_rc=rc)


def _stationary_csv(argv: list[str], sites: int) -> Command:
    def check(out: str) -> str | None:
        rows = list(csv.reader(out.splitlines()))
        if rows[0] != ["x", "mu", "mu_closed_form"] or len(rows) != sites + 1:
            return f"csv header {rows[0]} with {len(rows) - 1} rows"
        return _closed_form_error([float(r[1]) for r in rows[1:]], [float(r[2]) for r in rows[1:]])

    return Command(["stationary", "--format", "csv", *argv], check, sites=sites)


def _stationary_json(argv: list[str], sites: int) -> Command:
    def check(out: str) -> str | None:
        doc = json.loads(out)
        keys = list(doc["values"])
        if len(keys) != sites:
            return f"json measure has {len(keys)} sites"
        return _closed_form_error(
            [doc["values"][k] for k in keys], [doc["closed_form"][k] for k in keys]
        )

    return Command(["stationary", "--format", "json", *argv], check, sites=sites)


def _sweep(argv: list[str], outdir: Path, n: int, points: int) -> Command:
    def check(out: str) -> str | None:
        if out.strip() != f"wrote {points} measures to {outdir}":
            return f"sweep printed {out.strip()!r}"
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
        if len(summary["points"]) != points:
            return f"sweep wrote {len(summary['points'])} points"
        for point in summary["points"]:
            with open(outdir / point["csv"], encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            mu = [float(r[1]) for r in rows]
            if len(mu) != n:
                return f"{point['csv']} has {len(mu)} sites"
            diff = point["max_abs_diff"]
            if diff is None or not diff <= CLOSED_FORM_RTOL * max(mu):
                return f"{point['csv']}: max_abs_diff {diff!r}, max(mu) {max(mu):.3e}"
        return None

    argv = ["sweep", *argv, "--topology", f"cycle:{n}", "--outdir", str(outdir)]
    return Command(argv, check, sites=n * points)


def _defaults() -> Command:
    def check(out: str) -> str | None:
        doc = json.loads(out)
        return None if doc["schema"] == 1 and "topology" in doc else f"defaults printed {doc}"

    return Command(["defaults"], check)


def verify_large(work: Path, rng: np.random.Generator, tiny: bool) -> list[Command]:
    # N must be a multiple of 3 or the Fourier Type 1 state does not close.
    n, steps = (999, 10) if tiny else (99_999, 100)
    seeds = _write_seeds(work / "seeds.json", rng, range(n))
    topo = ["--topology", f"cycle:{n}"]
    return [
        _verify(["--coin", "fourier", "--type", "1", "--phi1", "w", "--phi3", "w2", *topo], n, steps),
        _verify(["--coin", "grover", "--type", "2", "--seeds", seeds, *topo], n, steps),
        _verify(["--coin", "stefanak-rho", "--rho", "0.4", "--type", "2", "--seeds", seeds, *topo], n, steps),
    ]


def sweep_families(work: Path, rng: np.random.Generator, tiny: bool) -> list[Command]:
    n, points = (60, 4) if tiny else (2000, 16)
    seeds = _write_seeds(work / "seeds.json", rng, range(n))
    phi = _complex_arg(rng)
    return [
        _sweep(["--coin", "stefanak-rho", "--type", "2", "--seeds", seeds,
                "--grid", f"0.2:0.8:{points}"], work / "rho2", n, points),
        _sweep(["--coin", "stefanak-eta", "--type", "2", "--seeds", seeds,
                "--grid", f"0.1:1.4:{points}"], work / "eta2", n, points),
        _sweep(["--coin", "stefanak-eta", "--type", "1", f"--phi1={phi}", f"--phi3={phi}",
                "--grid", f"0.1:1.4:{points}"], work / "eta1", n, points),
    ]


def cli_small(work: Path, rng: np.random.Generator, tiny: bool) -> list[Command]:
    commands = []
    for r in range(2 if tiny else 20):
        seeds = _write_seeds(work / f"seeds{r}.json", rng, range(-201, 201))
        eta = ["--coin", "stefanak-eta", "--eta", f"{rng.uniform(0.1, 1.4):.6f}"]
        rho = ["--coin", "stefanak-rho", "--rho", f"{rng.uniform(0.2, 0.8):.6f}"]
        phi, phi3 = _complex_arg(rng), _complex_arg(rng)
        type1_equal = ["--type", "1", f"--phi1={phi}", f"--phi3={phi}"]
        type1 = ["--type", "1", f"--phi1={phi}", f"--phi3={phi3}"]
        type2 = ["--type", "2", "--seeds", seeds]
        cycle = ["--topology", "cycle:30"]
        commands += [
            _classify(["--coin", "grover"], None),
            _classify(["--coin", "fourier"], "SquareConditionFailed"),
            _classify(eta, None),
            _classify(rho, None),
            _stationary_csv(["--coin", "grover", *type2, *cycle], 30),
            _stationary_json([*rho, *type2, *cycle], 30),
            _stationary_csv([*eta, *type1_equal, *cycle], 30),
            _verify(["--coin", "grover", *type1, *cycle], 30, 100),
            _verify([*rho, *type2, *cycle], 30, 100),
            _verify([*eta, *type1, "--topology", "window:40"], 81, 39),
            _verify(["--coin", "grover", *type2, "--topology", "window:200"], 401, 199),
            _verify([*eta, *type2, "--topology", "window:200"], 401, 199),
            _defaults(),
        ]
    order = rng.permutation(len(commands))
    return [commands[i] for i in order]


BUILDERS = {"verify_large": verify_large, "sweep_families": sweep_families, "cli_small": cli_small}


def build(name: str, work: Path, seed: int, tiny: bool = False) -> list[Command]:
    """Write the inputs of workload ``name`` under ``work`` and list its commands."""
    return BUILDERS[name](work, np.random.default_rng(seed), tiny)
