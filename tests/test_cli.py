import cmath
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwstat import cli, evolve, fourier, grover, make_coin, measure_of, type1_params, type1_state
from qwstat.cli import (
    EXIT_CLASSIFY,
    EXIT_DRIFT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SQUARE,
    UsageError,
    build_parser,
    main,
    parse_complex,
    parse_topology,
)
from qwstat.state import Cycle, WaveState, Window
from qwstat.tolerance import DRIFT_TOL

OMEGA = cmath.exp(2j * cmath.pi / 3)


def coin_doc(coin, convert=float):
    """The coin's file, with convert() applied to every re and im part."""
    rows = [[[convert(z.real), convert(z.imag)] for z in row] for row in coin.matrix.tolist()]
    return {"schema": 1, "matrix": rows}


# Files that give one key twice, which a Python dict cannot hold, so kept as text.
SEEDS_TWICE = '{"values": {"0": [1, 0], "0": [5, 0]}}'
MATRIX_TWICE = '{{"matrix": {}, "matrix": {}}}'.format(
    *(json.dumps(coin_doc(coin)["matrix"]) for coin in (grover(), fourier()))
)


class Obj(tuple):
    """A JSON object as its (key, value) pairs, so that a key may repeat."""


def render(doc) -> str:
    if isinstance(doc, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in doc) + "}"
    if isinstance(doc, list):
        return "[" + ", ".join(map(render, doc)) + "]"
    return json.dumps(doc)


def repeats_a_key(doc) -> bool:
    if isinstance(doc, Obj):
        keys = [k for k, _ in doc]
        return len(set(keys)) < len(keys) or any(repeats_a_key(v) for _, v in doc)
    return isinstance(doc, list) and any(map(repeats_a_key, doc))


# strings that hold colons, quotes and backslashes, which the key check must see through
json_strings = st.text(alphabet='ab:"\\ ', max_size=3)
json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | json_strings,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(st.tuples(json_strings, inner), max_size=3).map(Obj),
    max_leaves=12,
)


class TestParsers:
    @settings(max_examples=300, deadline=None)
    @given(json_docs)
    def test_json_reader_rejects_exactly_the_repeated_keys(self, doc):
        text = render(doc)
        if repeats_a_key(doc):
            with pytest.raises(ValueError, match="is given more than once"):
                cli._parse_json(text)
        else:
            assert cli._parse_json(text) == json.loads(text)

    def test_complex_literals(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("-0.5i") == -0.5j
        assert parse_complex("3") == 3 + 0j
        assert parse_complex("w") == pytest.approx(OMEGA)
        assert parse_complex("w2") == pytest.approx(OMEGA * OMEGA)

    def test_complex_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_complex("one plus i")

    def test_topology(self):
        assert parse_topology("cycle:12") == Cycle(12)
        assert parse_topology("window:5") == Window(5)
        for bad in ("ring:4", "cycle", "cycle:two", "cycle:1", "window:0"):
            with pytest.raises(UsageError):
                parse_topology(bad)


class TestClassify:
    def test_grover_both_ok(self, capsys):
        assert main(["classify", "--coin", "grover"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "type 1: OK" in out and "type 2: OK" in out

    def test_fourier_square_failure_exit(self, capsys):
        assert main(["classify", "--coin", "fourier"]) == EXIT_SQUARE
        out = capsys.readouterr().out
        assert "type 1: OK" in out
        assert "type 2: FAILED SquareConditionFailed" in out

    def test_fourier_type1_only_is_ok(self):
        assert main(["classify", "--coin", "fourier", "--type", "1"]) == EXIT_OK

    def test_haar_coin_lambda_inconsistency(self, tmp_path, capsys):
        # a generic unitary fails both classifications on lambda consistency
        from qwstat import random_coin

        coin = random_coin(np.random.default_rng(3))
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(coin_doc(coin)))
        assert main(["classify", "--coin", f"custom:{path}"]) == EXIT_CLASSIFY

    def test_json_report(self, capsys):
        assert main(["classify", "--coin", "grover", "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["type1"]["lambda"] == [-1.0, 0.0]
        assert doc["type2"]["type"] == 2

    def test_nonunitary_custom_coin(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        bad = [[[0.34, 0.0]] * 3] * 3
        path.write_text(json.dumps(bad))
        assert main(["classify", "--coin", f"custom:{path}"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_out_of_scope_coin_still_reports_json(self, tmp_path, capsys):
        # the identity has zero entries, so neither classification applies
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(coin_doc(make_coin(np.eye(3)))))
        assert main(["classify", "--coin", f"custom:{path}", "--json"]) == EXIT_INPUT
        out = capsys.readouterr().out
        assert "type 1: FAILED ZeroEntry" in out and "type 2: FAILED ZeroEntry" in out
        doc = json.loads(out[out.index("{"):])
        for key in ("type1", "type2"):
            assert doc[key]["error"] == "ZeroEntry"
            assert "a12" in doc[key]["message"]

    def test_missing_family_parameter(self, capsys):
        assert main(["classify", "--coin", "stefanak-eta"]) == EXIT_INPUT

    def test_stefanak_with_parameter(self, capsys):
        assert main(["classify", "--coin", "stefanak-rho", "--rho", "0.4"]) == EXIT_OK


class TestStationary:
    def test_fourier_period_three_csv(self, tmp_path, capsys):
        out = tmp_path / "mu.csv"
        code = main(
            [
                "stationary",
                "--coin", "fourier",
                "--type", "1",
                "--phi1", "w",
                "--phi3", "w2",
                "--topology", "cycle:12",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "period: 3" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == "x,mu"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.abs(np.array(values) - np.tile([6.0, 3.0, 3.0], 4)).max() < 1e-12

    def test_grover_window_constant_column(self, capsys):
        code = main(
            [
                "stationary",
                "--coin", "grover",
                "--type", "1",
                "--phi1", "1",
                "--phi3", "0",
                "--topology", "window:50",
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "period: 1" in captured.err
        values = [float(line.split(",")[1]) for line in captured.out.splitlines()[1:]]
        assert np.abs(np.array(values) - 2.0).max() < 1e-12

    def test_type2_seeds_file_with_closed_form_column(self, tmp_path):
        rng = np.random.default_rng(9)
        seeds = {x: complex(*rng.normal(size=2)) for x in range(10)}
        seeds_path = tmp_path / "seeds.json"
        seeds_path.write_text(
            json.dumps({"values": {str(x): [v.real, v.imag] for x, v in seeds.items()}})
        )
        out = tmp_path / "mu.csv"
        code = main(
            [
                "stationary",
                "--coin", "grover",
                "--type", "2",
                "--seeds", str(seeds_path),
                "--topology", "cycle:10",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "x,mu,mu_closed_form"
        for line in lines[1:]:
            _, mu, closed = line.split(",")
            assert float(mu) == pytest.approx(float(closed), abs=1e-10)

    def test_state_export_round_trips_measure_exactly(self, tmp_path):
        out = tmp_path / "mu.json"
        state_out = tmp_path / "state.json"
        code = main(
            [
                "stationary",
                "--coin", "fourier",
                "--type", "1",
                "--phi1", "0.3+0.7i",
                "--phi3", "w",
                "--topology", "cycle:9",
                "--out", str(out),
                "--state-out", str(state_out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(state_out.read_text())
        assert doc["topology"] == {"kind": "cycle", "n": 9}
        coin = fourier()
        want = type1_state(coin, type1_params(coin), 0.3 + 0.7j, parse_complex("w"), Cycle(9))
        assert list(doc["amplitudes"]) == [str(x) for x in range(9)]
        pairs = np.array(list(doc["amplitudes"].values()), dtype=np.float64)
        assert pairs.shape == (9, 3, 2) and pairs.tobytes() == want.amplitudes.tobytes()
        mu_doc = json.loads(out.read_text())
        # the weights written are those of the exported amplitudes, bit for bit
        assert list(mu_doc["values"].values()) == measure_of(want).values.tolist()

    def test_json_carries_the_closed_form_column(self, capsys):
        argv = ["stationary", "--coin", "stefanak-rho", "--rho", "0.4", "--type", "2",
                "--topology", "cycle:8"]
        assert main([*argv, "--format", "csv"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        # the same numbers as the CSV columns, bit for bit
        assert doc["values"] == {x: float(mu) for x, mu, _ in rows}
        assert doc["closed_form"] == {x: float(closed) for x, _, closed in rows}
        assert doc["values"] == pytest.approx(doc["closed_form"], abs=1e-12)

    def test_type2_default_seeds_impulse(self, capsys):
        code = main(
            ["stationary", "--coin", "grover", "--type", "2", "--topology", "cycle:8"]
        )
        assert code == EXIT_OK
        values = [
            float(line.split(",")[1])
            for line in capsys.readouterr().out.splitlines()[1:]
        ]
        # impulse at 0: mass 5/4 at sites 0 and 1, zero elsewhere
        assert values[0] == pytest.approx(1.25, abs=1e-12)
        assert values[1] == pytest.approx(1.25, abs=1e-12)
        assert max(values[2:]) == 0.0


class TestVerify:
    def test_fourier_cycle12_passes(self, capsys):
        code = main(
            [
                "verify",
                "--coin", "fourier",
                "--type", "1",
                "--phi1", "w",
                "--phi3", "w2",
                "--topology", "cycle:12",
                "--steps", "100",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["eigen_residual"] < 1e-12
        assert doc["stationarity"]["max_measure_drift"] <= 1e-9

    def test_fourier_cycle10_fails(self, capsys):
        code = main(
            [
                "verify",
                "--coin", "fourier",
                "--type", "1",
                "--phi1", "w",
                "--phi3", "w2",
                "--topology", "cycle:10",
            ]
        )
        assert code == EXIT_DRIFT
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["stationarity"]["max_measure_drift"] > 1e-3

    def test_grover_cycle30(self, capsys):
        code = main(
            ["verify", "--coin", "grover", "--type", "1", "--topology", "cycle:30"]
        )
        assert code == EXIT_OK

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QWSTAT_TOL", "100")
        code = main(
            [
                "verify",
                "--coin", "fourier",
                "--type", "1",
                "--topology", "cycle:10",
                "--steps", "10",
            ]
        )
        assert code == EXIT_OK  # drift ~ O(1) passes a tolerance of 100
        doc = json.loads(capsys.readouterr().out)
        assert doc["stationarity"]["tol"] == 100.0

    def test_explicit_tol_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QWSTAT_TOL", "100")
        code = main(
            [
                "verify",
                "--coin", "fourier",
                "--type", "1",
                "--topology", "cycle:10",
                "--steps", "10",
                "--tol", "1e-9",
            ]
        )
        assert code == EXIT_DRIFT

    @pytest.mark.parametrize(
        ("flag", "env"),
        [
            ("-1", None),
            ("nan", None),
            ("inf", None),
            ("-inf", None),
            (None, "-5"),
            (None, "nan"),
            (None, "inf"),
            ("-1", "1e-9"),
        ],
    )
    def test_bad_tolerance_is_input_error(self, capsys, monkeypatch, flag, env):
        # a negative tolerance used to fail every state as a drift (exit 3),
        # and nan / inf got through to the JSON emitter
        if env is None:
            monkeypatch.delenv("QWSTAT_TOL", raising=False)
        else:
            monkeypatch.setenv("QWSTAT_TOL", env)
        tol = [] if flag is None else [f"--tol={flag}"]
        code = main(["verify", "--coin", "grover", "--type", "1", "--topology", "cycle:12", *tol])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        source = "QWSTAT_TOL" if flag is None else "--tol"
        assert captured.err.startswith(f"error: {source} must be a finite tolerance >= 0")

    @pytest.mark.parametrize(
        ("flag", "env", "source", "tol"),
        [
            (None, None, "default", DRIFT_TOL),
            (None, "1e-7", "QWSTAT_TOL", 1e-7),
            ("1e-8", "1e-7", "--tol", 1e-8),
        ],
    )
    def test_tolerance_source_is_reported(self, capsys, monkeypatch, flag, env, source, tol):
        if env is None:
            monkeypatch.delenv("QWSTAT_TOL", raising=False)
        else:
            monkeypatch.setenv("QWSTAT_TOL", env)
        flags = [] if flag is None else ["--tol", flag]
        code = main(["verify", "--coin", "grover", "--type", "1", "--topology", "cycle:12", *flags])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)["stationarity"]
        assert (report["tol"], report["tol_source"]) == (tol, source)
        assert report["scale"] == pytest.approx(6.0)  # the seeds 1, 1 give weight 6 at every site

    def test_large_seeds_pass(self, capsys, monkeypatch):
        # the drift, 9.5e-7, is round-off of weights of 6e8; it used to fail
        # an absolute tolerance of 1e-9 with exit 3
        monkeypatch.delenv("QWSTAT_TOL", raising=False)
        argv = ["verify", "--coin", "grover", "--type", "1", "--phi1", "1e4", "--phi3", "1e4"]
        assert main([*argv, "--topology", "cycle:12"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)["stationarity"]
        assert report["max_measure_drift"] > report["tol"]
        assert report["max_measure_drift"] <= report["tol"] * report["scale"]
        assert report["passed"] is True

    def test_zero_tolerance_is_allowed(self, capsys, monkeypatch):
        monkeypatch.setenv("QWSTAT_TOL", "0")
        code = main(["verify", "--coin", "grover", "--type", "1", "--topology", "cycle:12"])
        assert code in (EXIT_OK, EXIT_DRIFT)
        assert json.loads(capsys.readouterr().out)["stationarity"]["tol"] == 0.0

    @pytest.mark.parametrize(
        "args",
        [
            ["--type", "1", "--phi1", "nan"],
            ["--type", "1", "--phi3", "1e999"],
            ["--type", "2", "--seeds", "nan_seeds.json"],
        ],
    )
    def test_non_finite_seeds_are_input_errors(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan_seeds.json").write_text(
            json.dumps({"values": {"0": [1.0, 0.0], "3": [float("nan"), 0.0]}})
        )
        code = main(["verify", "--coin", "grover", "--topology", "cycle:12", *args])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("command", ["stationary", "verify"])
    @pytest.mark.parametrize(
        ("args", "site"),
        [
            (["--type", "1", "--phi1", "1e200", "--phi3", "1e200", "--topology", "cycle:6"], 0),
            (["--type", "2", "--seeds", "big_seed.json", "--topology", "window:4"], 2),
        ],
    )
    def test_overflowing_seeds_are_input_errors(
        self, tmp_path, monkeypatch, capsys, command, args, site
    ):
        # finite seeds whose squared modulus overflows used to give a CSV of
        # inf (stationary) or a NaN drift that only the JSON emitter refused
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big_seed.json").write_text(json.dumps({"values": {"2": [1e200, 0.0]}}))
        code = main([command, "--coin", "grover", *args])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: seeds too large: the squared modulus of the state overflows at site {site}\n"
        )

    @pytest.mark.parametrize("command", ["stationary", "verify"])
    @pytest.mark.parametrize(
        "args",
        [
            ["--type", "1", "--phi1", "1e-170", "--phi3", "1e-170", "--topology", "cycle:12"],
            ["--type", "1", "--phi1", "1e-155", "--phi3", "1e-155", "--topology", "cycle:12"],
            ["--type", "2", "--seeds", "tiny_seed.json", "--topology", "window:4"],
        ],
    )
    def test_underflowing_seeds_are_input_errors(self, tmp_path, monkeypatch, capsys, command, args):
        # every weight 0 or subnormal: verify used to pass on a scale of 0.0
        # (1e-170) or of 6e-310 (1e-155)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny_seed.json").write_text(json.dumps({"values": {"2": [1e-160, 0.0]}}))
        code = main([command, "--coin", "grover", *args])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: seeds too small: the largest squared modulus of the state underflows\n"
        )

    @pytest.mark.parametrize("command", ["stationary", "verify"])
    def test_a_squared_norm_that_overflows_is_an_input_error(self, capsys, command):
        # every weight is the finite 1.7976931348623153e308: stationary used
        # to write them with exit 0, verify to fail only in the JSON emitter
        code = main(
            [command, "--coin", "grover", "--type", "1",
             "--phi1=9.02522829131669e+153-2.9034309071738925e+153i", "--phi3", "0",
             "--topology", "cycle:3"]
        )
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seeds too large: the squared norm of the state overflows\n"

    def test_weights_near_the_smallest_normal_are_written_normal(self, capsys):
        # these seeds passed the fence, and every weight was then written as
        # the subnormal 2.225073858507201e-308
        code = main(
            ["stationary", "--coin", "grover", "--type", "1",
             "--phi1=1.0332346718761602e-154-2.1204490582554513e-155i", "--phi3", "0",
             "--topology", "cycle:3"]
        )
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert max(float(row.split(",")[1]) for row in rows) >= 2.2250738585072014e-308

    def test_eigen_residual_site_is_at_the_seam(self, capsys):
        # the Fourier Type 1 left mover has period 3, so it does not close on
        # a 10-cycle: site 9 reads site 0 where the line would have site 10
        code = main(
            ["verify", "--coin", "fourier", "--type", "1", "--phi1", "w", "--phi3", "w2",
             "--topology", "cycle:10", "--steps", "1", "--tol", "100"]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["eigen_residual"] > 0.1
        assert doc["eigen_residual_site"] == 9

    @pytest.mark.parametrize(
        "args",
        [
            ["--type", "1", "--phi1", "1e4", "--phi3", "1e4", "--topology", "cycle:12"],
            ["--type", "2", "--topology", "window:40", "--steps", "39"],
        ],
    )
    def test_relative_fields(self, capsys, args):
        # the leaked norm and the eigen residual are absolute; their relative
        # forms stay at round-off whatever the seeds
        assert main(["verify", "--coin", "grover", *args]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        stationarity = doc["stationarity"]
        assert 0.0 <= stationarity["leaked_fraction"] < 1e-13
        assert 0.0 <= doc["eigen_residual_relative"] < 1e-13
        assert isinstance(doc["eigen_residual_relative_site"], int)

    def test_document_keys(self, capsys):
        # the keys are EigenResidual's attributes and StationarityReport's
        # fields, so a field added to either changes these sets
        argv = ["verify", "--coin", "grover", "--type", "1", "--topology", "window:8", "--steps", "3"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "schema", "coin", "lambda", "passed", "stationarity", "eigen_residual",
            "eigen_residual_site", "eigen_residual_relative", "eigen_residual_relative_site",
        }
        stationarity = doc["stationarity"]
        assert set(stationarity) == {
            "schema", "steps", "max_measure_drift", "worst_step", "interior", "leaked_norm",
            "leaked_fraction", "tol", "scale", "passed", "tol_source",
        }
        assert stationarity["schema"] == 1 and stationarity["interior"] == [-5, 5]
        assert 1 <= stationarity["worst_step"] <= 3

    def test_window_too_small_is_input_error(self, capsys):
        code = main(
            [
                "verify",
                "--coin", "grover",
                "--type", "1",
                "--topology", "window:5",
                "--steps", "50",
            ]
        )
        assert code == EXIT_INPUT


class TestSweep:
    def test_eta_type2_measures_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        seeds_path = tmp_path / "seeds.json"
        seeds_path.write_text(
            json.dumps(
                {
                    "values": {
                        str(x): list(rng.normal(size=2)) for x in range(16)
                    }
                }
            )
        )
        outdir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--coin", "stefanak-eta",
                "--type", "2",
                "--seeds", str(seeds_path),
                "--topology", "cycle:16",
                "--values", "0.0,0.5,1.5,3.0",
                "--outdir", str(outdir),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["points"]) == 4
        columns = []
        for point in summary["points"]:
            assert point["max_abs_diff"] < 1e-10
            lines = (outdir / point["csv"]).read_text().splitlines()[1:]
            columns.append([float(l.split(",")[1]) for l in lines])
        spread = np.abs(np.array(columns) - columns[0]).max()
        assert spread < 1e-9  # measure does not depend on eta

    def test_rho_type1_uniform(self, tmp_path):
        outdir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--coin", "stefanak-rho",
                "--type", "1",
                "--grid", "0.1:0.9:9",
                "--topology", "cycle:12",
                "--outdir", str(outdir),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["points"]) == 9
        assert all(point["period"] == 1 for point in summary["points"])

    def test_eta_type1_closed_form_column(self, tmp_path):
        outdir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--coin", "stefanak-eta",
                "--type", "1",
                "--phi1", "1",
                "--phi3", "1",
                "--topology", "window:40",
                "--grid", "0.1:1.5:15",
                "--outdir", str(outdir),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["points"]) == 15
        assert max(point["max_abs_diff"] for point in summary["points"]) < 1e-9

    def test_one_point_grid(self, tmp_path):
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--coin", "stefanak-eta", "--type", "1", "--grid", "0.4:0.4:1",
                     "--topology", "cycle:6", "--outdir", str(outdir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == ["stefanak_eta_0.400000.csv", "summary.json"]
        summary = json.loads((outdir / "summary.json").read_text())
        assert [point["csv"] for point in summary["points"]] == ["stefanak_eta_0.400000.csv"]

    def test_a_file_name_of_exactly_the_limit_is_written(self, tmp_path):
        # 251 bytes, and 255 with the .tmp suffix of the atomic write
        outdir = tmp_path / "sweep"
        name = f"stefanak_eta_{-1e226:.6f}.csv"
        assert len(f"{name}.tmp".encode()) == cli._NAME_MAX
        code = main(["sweep", "--coin", "stefanak-eta", "--type", "1", "--values=-1e226",
                     "--topology", "cycle:6", "--outdir", str(outdir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == [name, "summary.json"]

    def test_sweep_requires_family_coin(self):
        assert (
            main(["sweep", "--coin", "grover", "--type", "1", "--grid", "0:1:2",
                  "--outdir", "unused"])
            == EXIT_INPUT
        )

    def test_sweep_needs_grid_or_values(self, tmp_path):
        assert (
            main(["sweep", "--coin", "stefanak-rho", "--type", "1",
                  "--outdir", str(tmp_path)])
            == EXIT_INPUT
        )

    @pytest.mark.parametrize("values", ["", ","])
    def test_sweep_rejects_empty_values(self, tmp_path, values):
        outdir = tmp_path / "sweep"
        assert (
            main(["sweep", "--coin", "stefanak-rho", "--type", "1",
                  "--values", values, "--outdir", str(outdir)])
            == EXIT_INPUT
        )
        assert not outdir.exists()
        assert not (outdir / "summary.json").exists()

    @pytest.mark.parametrize(
        "coin, values",
        [
            ("stefanak-rho", "nan"),
            ("stefanak-eta", "nan"),
            ("stefanak-rho", "0.5,2"),
            ("stefanak-rho", "0.1,x"),
            # values that one CSV file name would hold, which kept only the last
            ("stefanak-rho", "0.4000001,0.4000002"),
            ("stefanak-rho", "0.4,0.4"),
            # lo:hi:count is a --grid, anything else --values
            ("stefanak-rho", "0.5:0.5:3"),
            ("stefanak-rho", "0:1"),
            ("stefanak-rho", "a:1:3"),
            ("stefanak-rho", "0:1:0"),
            # a 325-byte file name, which used to fail after the first CSV was written
            ("stefanak-eta", "0.5,1e300"),
            # a name of 256 bytes with its .tmp suffix, one past the limit
            ("stefanak-eta", "1e227"),
        ],
    )
    def test_failed_point_writes_nothing(self, tmp_path, capsys, coin, values):
        outdir = tmp_path / "sweep"
        option = "--grid" if ":" in values else "--values"
        assert (
            main(["sweep", "--coin", coin, "--type", "1", "--topology", "cycle:12",
                  option, values, "--outdir", str(outdir)])
            == EXIT_INPUT
        )
        assert not outdir.exists()
        assert capsys.readouterr().err.startswith("error: ")


class TestWeightPasses:
    """Each built state is weighed once: its fences, the measure written and
    verify's step 0 all read the one array ``WaveState._weights`` keeps."""

    @staticmethod
    def spy(monkeypatch):
        """The distinct arrays _weights hands out, each one weight pass, and
        the step-0 measures the verify kernel is given."""
        arrays, baselines = [], []
        weights, drift_trace = WaveState._weights, evolve._drift_trace

        def counting(state):
            mu = weights(state)
            if not any(mu is seen for seen in arrays):
                arrays.append(mu)
            return mu

        def spying(a, amps, mu0, *rest):
            baselines.append(mu0)
            return drift_trace(a, amps, mu0, *rest)

        monkeypatch.setattr(WaveState, "_weights", counting)
        monkeypatch.setattr(evolve, "_drift_trace", spying)
        return arrays, baselines

    @pytest.mark.parametrize(
        "argv, states",
        [
            (["stationary", "--coin", "fourier", "--type", "1", "--phi1", "w", "--phi3", "w2",
              "--topology", "cycle:9"], 1),
            (["stationary", "--coin", "grover", "--type", "2", "--topology", "window:20",
              "--format", "json"], 1),
            (["verify", "--coin", "grover", "--type", "1", "--topology", "cycle:12"], 1),
            (["verify", "--coin", "grover", "--type", "2", "--topology", "window:20",
              "--steps", "5"], 1),
            (["sweep", "--coin", "stefanak-eta", "--type", "1", "--values", "0.5,0.7,0.9",
              "--topology", "cycle:6", "--outdir", "{outdir}"], 3),
            (["sweep", "--coin", "stefanak-rho", "--type", "2", "--values", "0.3,0.6",
              "--topology", "window:10", "--outdir", "{outdir}"], 2),
        ],
        ids=["stationary-t1", "stationary-t2", "verify-t1", "verify-t2", "sweep-t1", "sweep-t2"],
    )
    def test_one_weight_pass_per_built_state(self, monkeypatch, tmp_path, capsys, argv, states):
        arrays, baselines = self.spy(monkeypatch)
        assert main([arg.format(outdir=tmp_path / "sweep") for arg in argv]) == EXIT_OK
        assert len(arrays) == states
        if argv[0] == "verify":
            assert len(baselines) == 1 and baselines[0] is arrays[0]


class TestMisc:
    def test_defaults_document(self, capsys):
        assert main(["defaults"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["topology"] == "cycle:30"
        assert doc["steps"] == 100

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "qwstat", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "classify" in result.stdout and "sweep" in result.stdout

    @pytest.mark.parametrize(
        "argv, env_tol, message",
        [
            (["classify", "--coin", "hadamard"], None, "unknown coin 'hadamard'"),
            (["verify", "--coin", "grover", "--type", "2", "--seeds", "{missing}"], None,
             "cannot read seeds file"),
            (["verify", "--coin", "grover", "--type", "2", "--seeds", "{not_json}"], None,
             "cannot read seeds file"),
            (["verify", "--coin", "grover", "--type", "1"], "abc",
             "QWSTAT_TOL is not a float: 'abc'"),
            (["verify", "--coin", "grover", "--type", "2", "--seeds", "{not_utf8}"], None,
             "cannot read seeds file"),
        ],
    )
    def test_input_error(self, tmp_path, monkeypatch, capsys, argv, env_tol, message):
        not_json = tmp_path / "seeds.json"
        not_json.write_text("{values")
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'\xff{"values": {}}')
        paths = {"missing": tmp_path / "absent.json", "not_json": not_json, "not_utf8": not_utf8}
        argv = [arg.format(**paths) for arg in argv]
        if env_tol is None:
            monkeypatch.delenv("QWSTAT_TOL", raising=False)
        else:
            monkeypatch.setenv("QWSTAT_TOL", env_tol)
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "--coin", "grover", "--type", "1", "--seeds", "/nonexistent.json",
              "--topology", "cycle:12"], "--seeds"),
            (["verify", "--coin", "grover", "--type", "2", "--phi1", "5", "--topology", "cycle:12"],
             "--phi1"),
            (["stationary", "--coin", "grover", "--type", "2", "--phi3", "1"], "--phi3"),
            (["classify", "--coin", "grover", "--eta", "0.3"], "--eta"),
            (["stationary", "--coin", "stefanak-eta", "--eta", "0.3", "--rho", "0.4",
              "--type", "1"], "--rho"),
            (["classify", "--coin", "custom:/nonexistent.json", "--rho", "0.4"], "--rho"),
            (["sweep", "--coin", "stefanak-rho", "--rho", "0.9", "--type", "2", "--values", "0.5"],
             "--rho"),
            (["sweep", "--coin", "stefanak-rho", "--type", "2", "--grid", "0.2:0.8:3",
              "--values", "0.5"], "--grid"),
        ],
    )
    def test_ignored_option_is_rejected(self, tmp_path, capsys, argv, option):
        # an option the run would not read fails closed, before any file is read or written
        outdir = tmp_path / "sweep"
        if argv[0] == "sweep":
            argv = [*argv, "--outdir", str(outdir)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert option in captured.err
        assert not outdir.exists()

    def test_type1_seeds_default_to_the_documented_values(self, capsys):
        defaults = cli.DEFAULTS
        outputs = []
        for seeds in ([], ["--phi1", defaults["phi1"], "--phi3", defaults["phi3"]]):
            assert main(["stationary", "--coin", "grover", "--type", "1", *seeds]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_an_allocation_the_machine_cannot_make_is_an_input_error(self, monkeypatch, capsys):
        # numpy raises a MemoryError subclass, such as for --steps 100000000000
        message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

        def cannot_allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "verify_stationary", cannot_allocate)
        assert main(["verify", "--coin", "grover", "--type", "1", "--topology", "cycle:12"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--coin", "grover", "--type", "1", "--steps", "abc"],
             "argument --steps: invalid int value: 'abc'"),
            (["verify", "--coin", "grover", "--type", "3"], "argument --type: invalid choice"),
            (["verify", "--coin", "grover", "--type", "1", "--tol", "x"],
             "argument --tol: invalid float value: 'x'"),
            (["classify", "--coin", "stefanak-rho", "--rho", "abc"],
             "argument --rho: invalid float value: 'abc'"),
            (["classify"], "the following arguments are required: --coin"),
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
    )
    def test_malformed_command_line(self, capsys, argv, message):
        # exit 2 is a failed classification, so argparse's own exit code is not used
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, _, error = captured.err.rpartition("\nerror: ")
        assert usage.startswith("usage: qwstat")
        assert error.startswith(message) and error.endswith("\n")

    def test_degenerate_seed_input(self, capsys):
        code = main(
            ["stationary", "--coin", "grover", "--type", "1",
             "--phi1", "0", "--phi3", "0"]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: the seeds give the zero state on this topology\n"

    @pytest.mark.parametrize(
        "kind, doc",
        [
            ("seeds", {"values": {"0": 5}}),
            ("seeds", {"values": {"0": [None, 1]}}),
            ("seeds", {"values": [1, 2]}),
            ("coin", {"matrix": 3}),
            ("coin", [[1, 0], [0, 1]]),
            ("seeds", {"values": {"0": "12"}}),
            ("seeds", {"values": {"0": ["1.5", 2]}}),
            ("seeds", {"values": {"0": [True, False]}}),
            ("seeds", {"values": {"1": [1.0, 0.0], "01": [2.0, 0.0]}}),
            ("seeds", {"values": {"0": [1.0, 0.0, 0.0]}}),
            ("seeds", {"values": {"0": [1.0, 0.0], str(2**64): [1.0, 0.0]}}),
            ("seeds", {"values": {"0": [10**400, 0]}}),
            ("coin", coin_doc(grover(), str)),
            ("coin", coin_doc(grover(), bool)),
            ("coin", coin_doc(grover(), lambda part: None)),
            pytest.param("seeds", SEEDS_TWICE, id="seeds-repeated-key"),
            pytest.param("coin", MATRIX_TWICE, id="coin-repeated-key"),
            ("seeds", {"values": {"1_0": [1.0, 0.0]}}),  # int() reads it as site 10
        ],
    )
    def test_malformed_input_file(self, tmp_path, capsys, kind, doc):
        path = tmp_path / "input.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        if kind == "seeds":
            argv = ["verify", "--coin", "grover", "--type", "2", "--seeds", str(path)]
        else:
            argv = ["classify", "--coin", f"custom:{path}"]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: malformed {kind} file {path}: " in captured.err

    def test_a_site_key_past_the_int_digit_limit_is_named(self, tmp_path, capsys):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"values": {"1" * 5000: [1, 0]}}))
        argv = ["stationary", "--coin", "grover", "--type", "2", "--topology", "cycle:5"]
        assert main([*argv, "--seeds", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: malformed seeds file {path}: site index does not fit in 64 bits\n"
        )

    @pytest.mark.parametrize(
        "kind, text, key",
        [
            ("seeds", SEEDS_TWICE, "0"),
            ("coin", MATRIX_TWICE, "matrix"),
            ("seeds", '{"note": "a:b", "values": {"1": [1, 0], "1": [5, 0]}}', "1"),
        ],
        ids=["seeds", "coin", "seeds-and-a-colon-in-a-string"],
    )
    def test_repeated_key_is_named(self, tmp_path, capsys, kind, text, key):
        path = tmp_path / "input.json"
        path.write_text(text)
        coin = f"custom:{path}" if kind == "coin" else "grover"
        argv = ["stationary", "--coin", coin, "--type", "2", "--topology", "cycle:4"]
        assert main([*argv, "--seeds", str(path)] if kind == "seeds" else argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: malformed {kind} file {path}: key {key!r} is given more than once\n"
        )

    def test_colon_in_a_string_is_not_a_repeated_key(self, tmp_path, capsys):
        outputs = []
        for text in ('{"values": {"1": [1, 0]}}', '{"note": "a:b", "values": {"1": [1, 0]}}'):
            path = tmp_path / "seeds.json"
            path.write_text(text)
            argv = ["stationary", "--coin", "grover", "--type", "2", "--seeds", str(path)]
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]


class TestParserReuse:
    """Every main call in a process shares one parser; none may see another's
    arguments, defaults or environment."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_match_a_fresh_parser(self, tmp_path, monkeypatch, capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"values": {"2": [0.5, -1.0], "3": [1.0, 0.25]}}))
        verify = ["verify", "--coin", "fourier", "--type", "1", "--topology", "cycle:10",
                  "--steps", "10"]
        type2 = ["stationary", "--coin", "grover", "--topology", "cycle:8"]
        # (QWSTAT_TOL or None, argv, expected exit code)
        calls = [
            (None, [*verify, "--tol", "100"], EXIT_OK),
            ("50", verify, EXIT_OK),
            (None, verify, EXIT_DRIFT),
            (None, [*type2, "--type", "2", "--seeds", str(seeds)], EXIT_OK),
            (None, [*type2, "--type", "2"], EXIT_OK),
            (None, [*type2, "--type", "3"], EXIT_INPUT),
            (None, [*type2, "--type", "1"], EXIT_OK),
            (None, ["classify", "--coin", "stefanak-rho", "--rho", "0.4", "--json"], EXIT_OK),
            (None, ["classify", "--coin", "grover"], EXIT_OK),
            (None, ["classify", "--coin", "stefanak-rho"], EXIT_INPUT),
        ]

        def run_all():
            results = []
            for env_tol, argv, _ in calls:
                if env_tol is None:
                    monkeypatch.delenv("QWSTAT_TOL", raising=False)
                else:
                    monkeypatch.setenv("QWSTAT_TOL", env_tol)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = f"argparse exit {exc.code}"
                out, err = capsys.readouterr()
                results.append((code, out, err))
            return results

        shared = run_all()
        assert [code for code, _, _ in shared] == [want for _, _, want in calls]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = run_all()
        for (_, argv, _), got, want in zip(calls, shared, fresh):
            assert got == want, argv
