"""Every exported name, and every hook the benchmark wraps, must resolve.

A deleted or renamed function that ``__all__`` still lists, or that the
benchmark's span recorder (``perfbench/spans.py``) still wraps, fails here
instead of at import time or in a traced benchmark run.  A hook on a built-in
coin must also run, so the CLI must look the coins up when a command runs.
The README's quick tour must run as written.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qwstat
from qwstat import cli

MODULES = ["qwstat"] + [
    f"qwstat.{m.name}" for m in pkgutil.iter_modules(qwstat.__path__) if m.name != "__main__"
]
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def _span_hooks() -> list[tuple[str, str, str]]:
    """The (module, attribute, group) entries of spans.py, read without importing it."""
    tables = {
        node.targets[0].id: node.value
        for node in ast.parse(SPANS.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    return [ast.literal_eval(tables["_ROOT"]), *ast.literal_eval(tables["WRAPPED"])]


def test_benchmark_hooks_resolve():
    hooks = _span_hooks()
    assert len(hooks) > 1
    missing = [(m, a) for m, a, _ in hooks if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def _count_calls(monkeypatch, name: str) -> list:
    """Replace ``qwstat.cli.<name>`` by a wrapper; return the list of its calls' arguments."""
    calls, original = [], getattr(cli, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, counting)
    return calls


def test_coins_are_looked_up_at_call_time(monkeypatch, tmp_path, capsys):
    rho = _count_calls(monkeypatch, "stefanak_rho")
    eta = _count_calls(monkeypatch, "stefanak_eta")
    assert cli.main(["classify", "--coin", "stefanak-rho", "--rho", "0.4"]) == 0
    assert rho == [(0.4,)]
    sweep = ["sweep", "--coin", "stefanak-eta", "--type", "1", "--values", "0.5,0.7",
             "--topology", "cycle:6", "--outdir", str(tmp_path / "sweep")]
    assert cli.main(sweep) == 0
    assert eta == [(0.5,), (0.7,)]


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    exec(tour.split("```", 1)[0], {})
