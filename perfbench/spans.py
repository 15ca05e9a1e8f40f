"""Span recorder that times qwstat's layers from outside the package.

A traced pass replaces each layer's public functions with a timing wrapper,
under the name its caller looks it up by.  ``qwstat.cli`` imports names
directly, so ``qwstat.cli.verify_stationary`` is wrapped there, while
``verify_stationary`` reaches ``step`` through ``qwstat.evolve``.  Nothing in
the package changes.  Spans stay in memory, each with its parent's id, until
the run writes them out.

Self time is a span's duration minus the durations of its child spans, so the
self times of all groups add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path
from typing import Callable

# (module, attribute, group).  A group's first dotted part is its layer:
# cli, coin, reduced, stationary, evolve or serialize.
WRAPPED = (
    ("qwstat.cli", "grover", "coin"),
    ("qwstat.cli", "fourier", "coin"),
    ("qwstat.cli", "stefanak_eta", "coin"),
    ("qwstat.cli", "stefanak_rho", "coin"),
    ("qwstat.reduced", "minors", "coin"),
    ("qwstat.cli", "type1_params", "reduced"),
    ("qwstat.cli", "type2_params", "reduced"),
    ("qwstat.cli", "type1_state", "stationary.construct"),
    ("qwstat.cli", "type2_state", "stationary.construct"),
    ("qwstat.cli", "closed_form_measure_a1", "stationary.closed_form"),
    ("qwstat.cli", "closed_form_measure_type2", "stationary.closed_form"),
    ("qwstat.cli", "detect_period", "stationary.detect_period"),
    ("qwstat.cli", "measure_of", "stationary.measure_of"),
    ("qwstat.cli", "verify_stationary", "evolve.verify"),
    ("qwstat.cli", "eigen_residual", "evolve.eigen_residual"),
    ("qwstat.evolve", "step", "evolve.step"),
    ("qwstat.cli", "seeds_from_json", "serialize"),
    ("qwstat.cli", "coin_from_json", "serialize"),
    ("qwstat.cli", "measure_to_csv", "serialize"),
    ("qwstat.cli", "measure_to_json", "serialize"),
    ("qwstat.cli", "state_to_json", "serialize"),
    ("qwstat.cli", "reduced_params_to_json", "serialize"),
)
# Groups whose spans record the number of sites of the state they return.
SIZED = ("stationary.construct", "evolve.step")

# Computed, not measured: bytes one `step` reads and writes per amplitude
# byte, from the array shapes in qwstat.evolve.step.  Two shifted copies
# (read + write: 4), three row products reading their operand (3) and writing
# a column temporary (1), the columns copied into the output (2), and the
# copy WaveState makes of it (2).
STEP_TRAFFIC = 12
AMPLITUDE_BYTES_PER_SITE = 3 * 16  # three complex128 amplitudes

# name -> unit; every traced run reports all of them per pass.
PER_LAYER = {
    "cli.self_s": "s",
    "coin.calls": "count",
    "coin.self_s": "s",
    "reduced.calls": "count",
    "reduced.self_s": "s",
    "reduced.fail_frac": "1",
    "stationary.construct.calls": "count",
    "stationary.construct.self_s": "s",
    "stationary.construct.sites_per_s": "1/s",
    "stationary.closed_form.calls": "count",
    "stationary.closed_form.self_s": "s",
    "stationary.detect_period.calls": "count",
    "stationary.detect_period.self_s": "s",
    "stationary.measure_of.self_s": "s",
    "evolve.step.calls": "count",
    "evolve.step.self_s": "s",
    "evolve.step.site_steps": "count",
    "evolve.step.site_steps_per_s": "1/s",
    "evolve.step.bytes_computed": "B",
    "evolve.verify.self_s": "s",
    "evolve.eigen_residual.self_s": "s",
    "serialize.calls": "count",
    "serialize.self_s": "s",
    "serialize.seeds_from_json.calls": "count",
    "trace.overhead_s": "s",
}

_ROOT = ("qwstat.cli", "main", "cli")


class Recorder:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.kinds = [_ROOT, *WRAPPED]
        self.kind = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")
        self.sites = array("q")
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, kind: int, fn: Callable) -> Callable:
        sized = self.kinds[kind][2] in SIZED
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            sid = len(self.start)
            self.kind.append(kind)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0)
            self.ok.append(0)
            self.sites.append(0)
            self._open.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._open.pop()
            self.ok[sid] = 1
            if sized:
                self.sites[sid] = result.amplitudes.shape[0]
            return result

        return span

    def root(self, main: Callable) -> Callable:
        """``main`` wrapped as the root span of one CLI command."""
        return self.wrap(0, main)

    def install(self) -> None:
        for kind, (module, attr, _group) in enumerate(WRAPPED, start=1):
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self.wrap(kind, original))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (all of PER_LAYER but the overhead)."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        failed: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        sites: dict[str, int] = {}
        for i in range(n):
            _module, attr, group = self.kinds[self.kind[i]]
            for key in (group, f"{group}.{attr}"):
                calls[key] = calls.get(key, 0) + 1
                failed[key] = failed.get(key, 0) + (1 - self.ok[i])
                self_ns[key] = self_ns.get(key, 0) + self.end[i] - self.start[i] - child_ns[i]
                sites[key] = sites.get(key, 0) + self.sites[i]

        def self_s(group: str) -> float:
            return self_ns.get(group, 0) / 1e9

        def rate(work: int, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        out = {}
        for name in PER_LAYER:
            group, _, what = name.rpartition(".")
            if what == "calls":
                out[name] = float(calls.get(group, 0))
            elif what == "self_s":
                out[name] = self_s(group)
        site_steps = sites.get("evolve.step", 0)
        out["reduced.fail_frac"] = rate(failed.get("reduced", 0), calls.get("reduced", 0))
        out["stationary.construct.sites_per_s"] = rate(
            sites.get("stationary.construct", 0), self_s("stationary.construct")
        )
        out["evolve.step.site_steps"] = float(site_steps)
        out["evolve.step.site_steps_per_s"] = rate(site_steps, self_s("evolve.step"))
        out["evolve.step.bytes_computed"] = float(
            site_steps * AMPLITUDE_BYTES_PER_SITE * STEP_TRAFFIC
        )
        return out


def write_spans(path: Path, recorders: list[Recorder]) -> None:
    """All spans as CSV: pass, id, parent id, name, start and end in ns, ok, sites."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("pass,id,parent,name,start_ns,end_ns,ok,sites\n")
        for p, rec in enumerate(recorders):
            names = [f"{module}.{attr}" for module, attr, _group in rec.kinds]
            for i in range(len(rec.start)):
                fh.write(
                    f"{p},{i},{rec.parent[i]},{names[rec.kind[i]]},{rec.start[i]},"
                    f"{rec.end[i]},{rec.ok[i]},{rec.sites[i]}\n"
                )
