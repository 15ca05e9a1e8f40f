"""qwstat: classify coins, build stationary measures, verify, sweep.

Exit codes: 0 success, 2 classification failure (inconsistent or
non-unimodular eigenvalue), 3 stationarity drift above tolerance, 4 input,
config or command-line error or an allocation the machine cannot make,
5 square-condition failure (Type 2 only).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import gc
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .coin import CoinMatrix, fourier, grover, stefanak_eta, stefanak_rho
from .errors import (
    InconsistentLambda,
    NonUnimodularLambda,
    QWalkError,
    SquareConditionFailed,
)
from .evolve import eigen_residual, verify_stationary
from .reduced import WalkType, type1_params, type2_params
from .serialize import (
    SCHEMA_VERSION,
    coin_from_json,
    measure_to_csv,
    measure_to_json,
    reduced_params_to_json,
    seeds_from_json,
    state_to_json,
)
from .state import Cycle, Topology, Window
from .stationary import (
    closed_form_applies,
    closed_form_measure_a1,
    closed_form_measure_type2,
    detect_period,
    measure_of,
    type1_state,
    type2_state,
)
from .tolerance import DRIFT_TOL

EXIT_OK = 0
EXIT_CLASSIFY = 2
EXIT_DRIFT = 3
EXIT_INPUT = 4
EXIT_SQUARE = 5

_NAME_MAX = 255  # bytes in one file name on common file systems

DEFAULTS = {
    "schema": SCHEMA_VERSION,
    "topology": "cycle:30",
    "steps": 100,
    "tol": DRIFT_TOL,
    "phi1": "1",
    "phi3": "1",
    "type2_seeds": {"0": [1.0, 0.0]},
}

_OMEGA = cmath.exp(2j * cmath.pi / 3)


class UsageError(Exception):
    """Bad command line or input file; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError (exit 4) after the usage
    line: argparse's own exit 2 is qwstat's code for a failed classification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' literals plus the shorthands w and w2 (cube roots of 1)."""
    t = text.strip().lower()
    if t == "w":
        return _OMEGA
    if t == "w2":
        return _OMEGA * _OMEGA
    try:
        return complex(t.replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r} (want a+bi, w, or w2)")


def parse_topology(text: str) -> Topology:
    kind, _, size = text.partition(":")
    try:
        if kind == "cycle":
            return Cycle(int(size))
        if kind == "window":
            return Window(int(size))
    except ValueError as exc:
        raise UsageError(f"bad topology {text!r}: {exc}")
    raise UsageError(f"bad topology {text!r} (want cycle:N or window:W)")


def _builtin_coins() -> dict:
    """Built-in coin name -> (constructor, option holding its parameter or None),
    built on each call so a wrapper set on ``qwstat.cli.grover`` is what runs."""
    return {
        "grover": (grover, None),
        "fourier": (fourier, None),
        "stefanak-eta": (stefanak_eta, "eta"),
        "stefanak-rho": (stefanak_rho, "rho"),
    }


def load_coin(args) -> CoinMatrix:
    name = args.coin
    if name.startswith("custom:"):
        return _read_json_file(Path(name[len("custom:"):]), "coin", coin_from_json)
    if name not in (coins := _builtin_coins()):
        raise UsageError(f"unknown coin {name!r}")
    make, option = coins[name]
    if option is None:
        return make()
    value = getattr(args, option)
    if value is None:
        raise UsageError(f"--coin {name} needs --{option}")
    return make(value)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given more than once")
        obj[key] = value
    return obj


class _ObjectSizes(list):
    """A json object_hook that keeps the number of entries of each object it sees."""

    def __call__(self, obj: dict) -> dict:
        self.append(len(obj))
        return obj


def _parse_json(text: str):
    """json.loads(text), but an object naming a key twice raises ValueError.
    Outside strings JSON has one colon per key, so the colons outnumber the
    decoded entries only if a key repeats or a string holds a colon."""
    sizes = _ObjectSizes()
    obj = json.loads(text, object_hook=sizes)
    if text.count(":") != sum(sizes):
        json.loads(text, object_pairs_hook=_unique_keys)
    return obj


def _read_json_file(path: Path, what: str, parse):
    """parse() of the JSON document in path.  A file that cannot be read, is
    not JSON, repeats a key or does not have the structure parse() expects
    raises a UsageError naming the file (exit 4).

    The cyclic garbage collector is paused while the file is decoded and
    parsed: a seeds file holds one small list per site, and the 1e5 of a
    large one would set off about 140 collections that free nothing.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            obj = _parse_json(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read {what} file {path}: {exc}")
        return parse(obj)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed {what} file {path}: {exc}")
    finally:
        if gc_was_enabled:
            gc.enable()


def resolve_tol(explicit: float | None) -> tuple[float, str]:
    """The drift tolerance and its source: --tol, else QWSTAT_TOL, else the
    default.  A negative or non-finite value is a UsageError naming where it
    came from."""
    if explicit is not None:
        tol, source = explicit, "--tol"
    else:
        env = os.environ.get("QWSTAT_TOL")
        if env is None:
            return DEFAULTS["tol"], "default"
        try:
            tol = float(env)
        except ValueError:
            raise UsageError(f"QWSTAT_TOL is not a float: {env!r}")
        source = "QWSTAT_TOL"
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"{source} must be a finite tolerance >= 0, got {tol!r}")
    return tol, source


def _reject_ignored_options(args) -> None:
    """Raise a UsageError naming the first option on the command line that
    the run would not read, so that it is not taken for one that counts."""
    given = {name for name, value in vars(args).items() if value is not None}
    for name, (_make, option) in _builtin_coins().items():
        if option in given:
            if args.command == "sweep":
                raise UsageError(f"sweep sets {option} from its grid or values; drop --{option}")
            if args.coin != name:
                raise UsageError(f"--{option} is read only with --coin {name}")
    for option in {1: ("seeds",), 2: ("phi1", "phi3")}.get(getattr(args, "type", None), ()):
        if option in given:
            raise UsageError(f"--{option} is not read with --type {args.type}")
    if {"grid", "values"} <= given:
        raise UsageError("--grid is not read beside --values; give one of them")


def build_state(args, coin: CoinMatrix, topology: Topology):
    """The requested eigenstate, its params and the seeds parsed for it:
    (phi1, phi3) for Type 1, the Seeds for Type 2."""
    if args.type == 1:
        params = type1_params(coin)
        phi1 = DEFAULTS["phi1"] if args.phi1 is None else args.phi1
        phi3 = DEFAULTS["phi3"] if args.phi3 is None else args.phi3
        seeds = parse_complex(phi1), parse_complex(phi3)
        return type1_state(coin, params, *seeds, topology), params, seeds
    params = type2_params(coin)
    if args.seeds is None:
        seeds = seeds_from_json(DEFAULTS["type2_seeds"])
    else:
        seeds = _read_json_file(Path(args.seeds), "seeds", seeds_from_json)
    return type2_state(coin, params, seeds, topology), params, seeds


def measure_point(args, coin: CoinMatrix, topology: Topology):
    """The requested eigenstate, its measure, and the closed-form column of
    that measure, or None where no closed form applies."""
    state, params, seeds = build_state(args, coin, topology)
    measure = measure_of(state)
    type2 = params.walk_type is WalkType.TYPE2
    phi1, phi3 = (None, None) if type2 else seeds
    if not closed_form_applies(coin, params.walk_type.value, phi1, phi3):
        return state, measure, None
    sites = topology.sites()
    if type2:
        # the closed form reads one site at a time from a mapping, which Seeds is not
        lookup = dict(zip(seeds.sites.tolist(), seeds.values.tolist()))
        closed = [closed_form_measure_type2(coin, lookup, int(x), topology) for x in sites]
    else:
        closed = [closed_form_measure_a1(coin.family_param, phi1, int(x)) for x in sites]
    return state, measure, np.array(closed)


def _exit_code(exc: Exception) -> int:
    """The exit code a failure maps to."""
    if isinstance(exc, (InconsistentLambda, NonUnimodularLambda)):
        return EXIT_CLASSIFY
    if isinstance(exc, SquareConditionFailed):
        return EXIT_SQUARE
    return EXIT_INPUT


def _json_text(doc: dict) -> str:
    """The CLI's JSON form of doc; a NaN or infinity raises ValueError (exit 4)."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def cmd_classify(args) -> int:
    coin = load_coin(args)
    report: dict = {"schema": SCHEMA_VERSION, "coin": args.coin}
    failures: list[int] = []
    for t, fn in ((1, type1_params), (2, type2_params)):
        if args.type not in ("both", str(t)):
            continue
        try:
            params = fn(coin)
            print(f"type {t}: OK lambda={params.lam:.12g} a1={params.a_tilde_1:.12g}"
                  f" a2={params.a_tilde_2:.12g} residual={params.residual:.3e}")
            report[f"type{t}"] = reduced_params_to_json(params)
        except QWalkError as exc:
            print(f"type {t}: FAILED {type(exc).__name__}: {exc}")
            failures.append(_exit_code(exc))
            report[f"type{t}"] = {"error": type(exc).__name__, "message": str(exc)}
    if args.json:
        sys.stdout.write(_json_text(report))
    # out-of-scope coin first, then eigenvalue failures, then the square condition
    return next((c for c in (EXIT_INPUT, EXIT_CLASSIFY, EXIT_SQUARE) if c in failures), EXIT_OK)


def cmd_stationary(args) -> int:
    coin = load_coin(args)
    topology = parse_topology(args.topology)
    state, measure, closed = measure_point(args, coin, topology)

    fmt = args.format or ("json" if (args.out or "").endswith(".json") else "csv")
    if fmt == "csv":
        payload = measure_to_csv(measure, closed)
    else:
        payload = _json_text(measure_to_json(measure, closed))

    if args.out is None:
        sys.stdout.write(payload)
    else:
        _atomic_write(Path(args.out), payload)
    if args.state_out is not None:
        _atomic_write(Path(args.state_out), _json_text(state_to_json(state)))

    period = detect_period(measure)
    print(f"period: {period if period is not None else 'none'}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    coin = load_coin(args)
    topology = parse_topology(args.topology)
    tol, tol_source = resolve_tol(args.tol)
    state, params, _ = build_state(args, coin, topology)
    residual = eigen_residual(coin, state, params.lam)
    report = verify_stationary(coin, state, args.steps, tol=tol)
    doc = {
        "schema": SCHEMA_VERSION,
        "coin": args.coin,
        "lambda": [params.lam.real, params.lam.imag],
        "eigen_residual": float(residual),
        **{f"eigen_residual_{name}": value for name, value in vars(residual).items()},
        "stationarity": {"schema": SCHEMA_VERSION, **asdict(report), "tol_source": tol_source},
        "passed": report.passed,
    }
    sys.stdout.write(_json_text(doc))
    return EXIT_OK if report.passed else EXIT_DRIFT


def parse_grid(args) -> list[float]:
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v]
        except ValueError as exc:
            raise UsageError(f"bad --values: {exc}")
        if not values:
            raise UsageError("--values lists no values")
        return values
    if args.grid is not None:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise UsageError("--grid wants lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"bad --grid: {exc}")
        if count < 1:
            raise UsageError("--grid count must be >= 1")
        return list(np.linspace(lo, hi, count))
    raise UsageError("sweep needs --grid or --values")


def cmd_sweep(args) -> int:
    families = {name: make for name, (make, option) in _builtin_coins().items() if option}
    if args.coin not in families:
        raise UsageError("sweep supports --coin " + " or ".join(families))
    topology = parse_topology(args.topology)
    grid = parse_grid(args)
    names = [f"{args.coin.replace('-', '_')}_{value:.6f}.csv" for value in grid]
    if len(set(names)) < len(names):
        clash = next(name for i, name in enumerate(names) if name in names[:i])
        raise UsageError(f"two sweep values would both write {clash}; file names keep 6 decimals")
    for value, name in zip(grid, names):
        if len(f"{name}.tmp".encode()) > _NAME_MAX:
            raise UsageError(
                f"sweep value {value!r} gives a file name longer than {_NAME_MAX} bytes "
                f"with its .tmp suffix"
            )
    # Every point is computed before anything is written, so a grid value
    # that fails leaves no output directory and no partial sweep behind.
    # CSV text is rendered only as each file is written, so at most one is
    # held in memory.
    points = []
    columns = []  # (CSV name, measure, closed-form column) per point
    for value, name in zip(grid, names):
        coin = families[args.coin](value)
        _, measure, closed = measure_point(args, coin, topology)
        columns.append((name, measure, closed))

        max_diff = float(np.abs(measure.values - closed).max()) if closed is not None else None
        period = detect_period(measure)
        points.append({"value": value, "csv": name, "period": period, "max_abs_diff": max_diff})
    summary = {"schema": SCHEMA_VERSION, "coin": args.coin, "type": args.type,
               "topology": args.topology, "points": points}
    summary_text = _json_text(summary)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, measure, closed in columns:
        _atomic_write(outdir / name, measure_to_csv(measure, closed))
    _atomic_write(outdir / "summary.json", summary_text)
    print(f"wrote {len(points)} measures to {outdir}")
    return EXIT_OK


def cmd_defaults(_args) -> int:
    sys.stdout.write(_json_text(DEFAULTS))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qwstat argument parser, built on the first call and shared after.

    Sharing it is safe because parse_args keeps no state between calls: each
    call fills a fresh Namespace and applies the defaults again.
    """
    parser = _Parser(
        prog="qwstat",
        description="Stationary measures of three-state quantum walks.",
        epilog=(
            "exit codes: 0 ok, 2 classification failure, 3 stationarity drift, "
            "4 input error, 5 square-condition failure. "
            f"QWSTAT_TOL overrides the default drift tolerance ({DRIFT_TOL:g} x max(mu0))."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coin_p = argparse.ArgumentParser(add_help=False)
    coins = _builtin_coins()
    coin_p.add_argument("--coin", required=True, help=" | ".join([*coins, "custom:<file.json>"]))
    for name, (_make, option) in coins.items():
        if option is not None:
            coin_p.add_argument(f"--{option}", type=float, help=f"parameter for {name}")

    state_p = argparse.ArgumentParser(add_help=False)
    state_p.add_argument("--type", type=int, choices=(1, 2), required=True)
    state_p.add_argument("--phi1", help="type 1 seed (a+bi, w, w2)")
    state_p.add_argument("--phi3", help="type 1 seed (a+bi, w, w2)")
    state_p.add_argument(
        "--seeds",
        help="type 2 seeds file, JSON {\"values\": {\"site\": [re, im]}}; "
        "missing sites read as 0; default: unit impulse at site 0",
    )
    state_p.add_argument(
        "--topology",
        default=DEFAULTS["topology"],
        help=f"cycle:N or window:W (default {DEFAULTS['topology']})",
    )

    p = sub.add_parser("classify", parents=[coin_p], help="run both classifications")
    p.add_argument("--type", choices=("1", "2", "both"), default="both")
    p.add_argument("--json", action="store_true", help="also emit a JSON report")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser(
        "stationary", parents=[coin_p, state_p], help="build a stationary measure"
    )
    p.add_argument("--out", help="output path (.csv or .json); default stdout CSV")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--state-out", help="also export the state as JSON")
    p.set_defaults(fn=cmd_stationary)

    p = sub.add_parser(
        "verify", parents=[coin_p, state_p], help="check stationarity by evolution"
    )
    p.add_argument("--steps", type=int, default=DEFAULTS["steps"])
    p.add_argument(
        "--tol",
        type=float,
        help=f"drift tolerance relative to max(mu0), the largest weight at step 0 "
        f"(default QWSTAT_TOL or {DRIFT_TOL:g})",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "sweep", parents=[coin_p, state_p], help="sweep a coin family parameter"
    )
    p.add_argument("--grid", help="lo:hi:count")
    p.add_argument("--values", help="comma-separated parameter values")
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("defaults", help="print the default configuration as JSON")
    p.set_defaults(fn=cmd_defaults)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one qwstat command and return its exit code.

    Every call in a process shares one parser (see build_parser), so code
    that calls main in a loop pays for building it once.
    """
    try:
        args = build_parser().parse_args(argv)
        _reject_ignored_options(args)
        return args.fn(args)
    except (UsageError, QWalkError, ValueError, OSError, MemoryError) as exc:
        code = _exit_code(exc)
        label = "error" if code == EXIT_INPUT else "classification failed"
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
