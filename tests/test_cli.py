"""File formats and the command-line front end."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import limbsys
from limbsys import Coupling, DemoConfig, cli, extremality, is_extremal, run_demo, tv_distance
from limbsys.cli import main
from limbsys.io import (
    canonical_json,
    coupling_payload,
    load_coupling,
    load_problem,
    load_system,
    system_payload,
    write_json,
)


# Input fixtures are written with the stock json module: they stand in for
# user-authored files with short decimal literals, which the rational loader
# must read exactly (0.1 -> 1/10).  The canonical writer is for outputs.
def write_problem(path, mu, nu, cost=None):
    payload = {"mu": mu, "nu": nu}
    if cost is not None:
        payload["cost"] = cost
    path.write_text(json.dumps(payload) + "\n")


def run_python(*args):
    """Run a fresh interpreter that imports the limbsys under test."""
    paths = [str(Path(limbsys.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def write_coupling(path, m, n, entries):
    path.write_text(json.dumps({"m": m, "n": n, "entries": entries}) + "\n")


def one_limb_system(k=1, level=1, m=1, pair=(0, 0)):
    """A limb-system file of one graph limb on a 1x1 grid."""
    limb = {"k": k, "kind": "graph", "map": [list(pair)]}
    return json.dumps({"m": m, "n": 1, "limbs": [limb], "I_odd": [level], "I_even": [0]})


# A JSON integer literal of 310 digits: valid input, but too large for a float.
HUGE = 10**309


class TestCanonicalJson:
    def test_sorted_keys_and_newline(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}\n'

    def test_float_formatting(self):
        assert canonical_json([0.5, 1.0, 1 / 3]) == "[0.5, 1, 0.33333333333333331]\n"

    def test_fraction_becomes_float(self):
        assert canonical_json(F(1, 4)) == "0.25\n"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))


class TestFileFormats:
    def test_problem_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        write_problem(path, [0.5, 0.5], [0.25, 0.75], [[0.0, 1.0], [1.0, 0.0]])
        mu, nu, cost = load_problem(path)
        assert mu.weights == (0.5, 0.5)
        assert nu.weights == (0.25, 0.75)
        assert cost.rows == ((0.0, 1.0), (1.0, 0.0))

    def test_rational_loading_is_exact(self, tmp_path):
        path = tmp_path / "p.json"
        write_problem(path, [0.1, 0.9], [1.0], [[0.2], [0.3]])
        mu, nu, cost = load_problem(path, rational=True)
        assert mu.weights == (F(1, 10), F(9, 10))
        assert cost.rows == ((F(1, 5),), (F(3, 10),))

    def test_coupling_round_trip(self, tmp_path):
        gamma = Coupling(2, 3, ((0, 1, 0.25), (1, 2, 0.75)))
        path = tmp_path / "g.json"
        write_json({path: coupling_payload(gamma)})
        assert load_coupling(path) == gamma

    def test_system_round_trip(self, tmp_path):
        from limbsys import decompose, support_graph

        gamma = Coupling(3, 3, tuple((i, 0 if i < 2 else 2, 0.3) for i in range(3)))
        system = decompose(support_graph(gamma))
        path = tmp_path / "s.json"
        write_json({path: system_payload(system)})
        assert load_system(path) == system


@pytest.fixture
def balanced_problem(tmp_path):
    path = tmp_path / "problem.json"
    write_problem(path, [0.5, 0.5], [0.2, 0.8], [[0.0, 1.0], [1.0, 0.0]])
    return path


class TestCli:
    def test_solve_writes_coupling_and_duals(self, tmp_path, balanced_problem, capsys):
        out = tmp_path / "g.json"
        duals = tmp_path / "d.json"
        code = main(["solve", str(balanced_problem), "--out", str(out), "--duals", str(duals)])
        assert code == 0
        assert "optimum" in capsys.readouterr().out
        gamma = load_coupling(out)
        assert gamma.total_mass() == pytest.approx(1.0, abs=1e-12)
        payload = json.loads(duals.read_text())
        assert set(payload) == {"q", "r", "value"}
        assert payload["r"][0] == 0

    def test_solve_deterministic_bytes(self, tmp_path, balanced_problem):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", str(balanced_problem), "--out", str(a)]) == 0
        assert main(["solve", str(balanced_problem), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_unbalanced_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_problem(path, [1.0], [0.5], [[0.0]])
        assert main(["solve", str(path)]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_malformed_json_is_exit_1_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"mu": [1, ]')
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: malformed JSON at line 1, column 12: Expecting value\n"

    @pytest.mark.parametrize(
        "content, said",
        [
            ('{"mu": [-1], "nu": [1], "cost": [[0]]}', "negative weight at index 0: -1"),
            (
                '{"m": 1, "n": 1, "limbs": [{"k": 0, "kind": "graph", "map": [[0, 0]]}], '
                '"I_odd": [1], "I_even": [0]}',
                "limb indices start at 1",
            ),
        ],
        ids=["negative-mass", "limb-0"],
    )
    def test_rejected_values_name_the_file(self, tmp_path, capsys, content, said):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        if '"limbs"' in content:
            problem = tmp_path / "p.json"
            write_problem(problem, [1], [1])
            argv = ["reconstruct", str(bad), str(problem), "--out", str(tmp_path / "r.json")]
        else:
            argv = ["solve", str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {said}\n"

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize(
        "verb, content",
        [
            (verb, '{"m": 2.9, "n": "2", "entries": [[0.5, 0, 0.5], [1.7, "1", 0.5]]}')
            for verb in ("check-extremal", "decompose")
        ]
        + [
            ("check-extremal", '{"m": 2, "n": 2, "entries": [[0, "1", 0.5]]}'),
            ("reconstruct", one_limb_system(k=1.9, level=1.5)),
            ("reconstruct", one_limb_system(k=1.9)),
            ("reconstruct", one_limb_system(level=1.5)),
            ("reconstruct", one_limb_system(m=1.0)),
            ("reconstruct", one_limb_system(pair=[0, 0.0])),
        ],
        ids=[
            "coupling-check", "coupling-decompose", "entry-column",
            "limb-and-level", "limb", "level", "system-size", "map",
        ],
    )
    def test_fractional_or_string_indices_are_exit_1_naming_the_file(
        self, tmp_path, capsys, verb, content, rational
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv = [verb, str(bad)] + (["--rational"] if rational else [])
        if verb == "reconstruct":
            problem = tmp_path / "p.json"
            write_problem(problem, [1], [1])
            argv.append(str(problem))
        if verb != "check-extremal":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "cannot be interpreted as an integer" in err
        assert len(err.strip().splitlines()) == 1

    def test_unrenderable_coupling_leaves_the_out_file_alone(self, tmp_path, capsys):
        # The optimum costs 0, so the summary renders, but the mass 10**400
        # on cell (0, 1) has no JSON float.
        path = tmp_path / "p.json"
        path.write_text('{"mu": [1e400, 0.5], "nu": [0.5, 1e400], "cost": [[1, 0], [0, 1]]}')
        out = tmp_path / "out.json"
        out.write_text("kept\n")
        assert main(["solve", "--rational", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot serialize")
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("verb", ["solve", "demo-circle"])
    def test_unopenable_second_output_leaves_the_first_alone(
        self, tmp_path, balanced_problem, capsys, verb, existing
    ):
        # The second output lies in a missing directory, so the verb fails
        # after rendering both; the first path must stay as it was.
        first, second = tmp_path / "o.json", str(tmp_path / "missing" / "x")
        if existing:
            first.write_text("kept\n")
        if verb == "solve":
            argv = ["solve", str(balanced_problem), "--out", str(first), "--duals", second]
        else:
            argv = ["demo-circle", "--n", "12", "--out", str(first), "--plot", second]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert first.read_text() == "kept\n" if existing else not first.exists()

    def test_an_output_replaces_a_longer_file(self, tmp_path, balanced_problem):
        out = tmp_path / "o.json"
        out.write_text("x" * 10000)
        assert main(["solve", str(balanced_problem), "--out", str(out)]) == 0
        assert load_coupling(out).total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_unrenderable_summary_writes_no_file(self, tmp_path, capsys):
        # The optimum 10**400 has no float to print; nothing is written.
        path = tmp_path / "p.json"
        path.write_text('{"mu": [1e400], "nu": [1e400], "cost": [[1]]}')
        out, duals = tmp_path / "out.json", tmp_path / "duals.json"
        assert main(["solve", "--rational", str(path), "--out", str(out), "--duals", str(duals)]) == 1
        assert capsys.readouterr().err.startswith("error: value")
        assert not out.exists() and not duals.exists()

    def test_missing_cost_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_problem(path, [1.0], [1.0])
        assert main(["solve", str(path)]) == 1
        assert "cost" in capsys.readouterr().err

    def test_shape_mismatch_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_problem(path, [0.5, 0.5], [0.5, 0.5], [[1.0]])
        assert main(["solve", str(path)]) == 1
        assert "1x1" in capsys.readouterr().err

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 1
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, content",
        [(verb, "[1, 2]") for verb in ("check-extremal", "decompose", "reconstruct")]
        + [(verb, '{"m": 2, "n": 2, "entries": [[0]]}') for verb in ("check-extremal", "decompose")],
    )
    def test_malformed_layout_is_exit_1_without_traceback(
        self, tmp_path, balanced_problem, capsys, verb, content
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv = [verb, str(bad)]
        if verb == "reconstruct":
            argv.append(str(balanced_problem))
        if verb != "check-extremal":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "bad.json" in err

    def test_totals_overflowing_to_inf_are_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        cost = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
        write_problem(path, [1e308, 1e308], [1e308, 1e308, 1e307], cost)
        assert main(["solve", str(path)]) == 2
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["solve", "check-extremal"])
    def test_float_overflow_is_exit_1_without_traceback(self, tmp_path, capsys, verb):
        # An integer beyond the float range cannot be compared with float
        # data: the marginals for solve, the coupling masses for
        # check-extremal --witness.
        path = tmp_path / "huge.json"
        if verb == "solve":
            write_problem(path, [HUGE, 0.5], [1.0, 2.0], [[0, 1], [1, 0]])
            argv = ["solve", str(path)]
        else:
            write_coupling(path, 2, 2, [[0, 0, HUGE], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]])
            argv = ["check-extremal", str(path), "--witness", str(tmp_path / "w.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("extra", [[], ["--eps-mass", "1e-3"]])
    def test_usage_error_is_exit_1(self, tmp_path, capsys, extra):
        # argparse exits 2 on a usage error; here 2 means an infeasible instance.
        path = tmp_path / "p.json"
        write_problem(path, [1.0], [1.0], [[0.0]])
        argv = ["solve", str(path)] + extra if extra else ["solve"]
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_is_exit_0(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_check_extremal_verdicts(self, tmp_path, capsys):
        extremal = tmp_path / "diag.json"
        write_coupling(extremal, 2, 2, [[0, 0, 0.5], [1, 1, 0.5]])
        assert main(["check-extremal", str(extremal)]) == 0
        missing = tmp_path / "none.json"
        assert main(["check-extremal", str(extremal), "--witness", str(missing)]) == 0
        assert not missing.exists()
        uniform = tmp_path / "uniform.json"
        write_coupling(uniform, 2, 2, [[i, j, 0.25] for i in range(2) for j in range(2)])
        witness = tmp_path / "w.json"
        assert main(["check-extremal", str(uniform), "--witness", str(witness)]) == 3
        payload = json.loads(witness.read_text())
        assert set(payload) == {"cycle", "gamma0", "gamma1"}
        assert len(payload["cycle"]) == 4
        out = capsys.readouterr().out
        assert "extremal" in out and "non-extremal" in out

    def test_decompose_cyclic_is_exit_3(self, tmp_path, capsys):
        cyclic = tmp_path / "cyclic.json"
        write_coupling(cyclic, 2, 2, [[i, j, 0.25] for i in range(2) for j in range(2)])
        assert main(["decompose", str(cyclic), "--out", str(tmp_path / "s.json")]) == 3
        assert "cyclic" in capsys.readouterr().err

    def test_decompose_prints_the_highest_limb_index(self, tmp_path, capsys):
        # One row sending to two columns decomposes into limb 2 alone: the
        # system has one limb but needs the numbers up to 2.
        row = tmp_path / "row.json"
        write_coupling(row, 1, 2, [[0, 0, 0.5], [0, 1, 0.5]])
        system = tmp_path / "s.json"
        assert main(["decompose", str(row), "--out", str(system)]) == 0
        assert [limb["k"] for limb in json.loads(system.read_text())["limbs"]] == [2]
        assert capsys.readouterr().out == "2 limbs\n"

    @pytest.mark.parametrize(
        "k, kind, named",
        [(2, "graph", "limb 2"), (1, "tree", "limb 1"), (2, None, "system.json: missing key 'kind'")],
    )
    def test_system_kind_must_match_the_limb_index(
        self, tmp_path, balanced_problem, capsys, k, kind, named
    ):
        limb = {"k": k, "map": [[0, 0]]}
        if kind is not None:
            limb["kind"] = kind
        system = tmp_path / "system.json"
        system.write_text(
            json.dumps({"m": 2, "n": 2, "limbs": [limb], "I_odd": [1, 1], "I_even": [0, 0]}) + "\n"
        )
        argv = ["reconstruct", str(system), str(balanced_problem), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert len(err.strip().splitlines()) == 1

    def test_reconstruct_infeasible_is_exit_4(self, tmp_path, balanced_problem, capsys):
        diag = tmp_path / "diag.json"
        write_coupling(diag, 2, 2, [[0, 0, 0.5], [1, 1, 0.5]])
        system = tmp_path / "system.json"
        assert main(["decompose", str(diag), "--out", str(system)]) == 0
        # The diagonal system cannot carry the (0.2, 0.8) column marginal.
        assert main(["reconstruct", str(system), str(balanced_problem), "--out", str(tmp_path / "r.json")]) == 4
        assert "infeasible" in capsys.readouterr().err

    def test_pipeline_round_trip(self, tmp_path, balanced_problem):
        solved = tmp_path / "solved.json"
        system = tmp_path / "system.json"
        rebuilt = tmp_path / "rebuilt.json"
        assert main(["solve", str(balanced_problem), "--out", str(solved)]) == 0
        assert main(["decompose", str(solved), "--out", str(system)]) == 0
        assert main(["reconstruct", str(system), str(balanced_problem), "--out", str(rebuilt)]) == 0
        assert tv_distance(load_coupling(solved), load_coupling(rebuilt)) <= 1e-12

    def test_demo_circle_outputs(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        plot = tmp_path / "support.csv"
        code = main(
            ["demo-circle", "--n", "12", "--out", str(report), "--plot", str(plot)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["n"] == 12
        assert payload["verdict"] == "extremal"
        limbs = payload["system"]["limbs"]
        assert len(payload["limb_mass"]) == len(limbs)
        lines = plot.read_text().splitlines()
        assert lines[0] == "theta,phi,mass,limb"
        assert len(lines) == 1 + len(payload["coupling"]["entries"])
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {str(limb["k"]) for limb in limbs}
        out = capsys.readouterr().out
        assert "value" in out and f"{len(limbs)} limbs" in out

    def test_demo_flags_are_the_config_fields(self):
        parser = cli.build_parser()
        defaults = vars(parser.parse_args(["demo-circle"]))
        fields = {field.name: field.default for field in dataclasses.fields(DemoConfig)}
        assert set(defaults) - {"verb", "fn", "out", "plot"} == set(fields)
        for name, default in fields.items():
            assert defaults[name] == default
            flag = "--" + name.replace("_", "-")
            value = vars(parser.parse_args(["demo-circle", flag, "3"]))[name]
            assert value == 3 and type(value) is type(default)

    def test_demo_circle_rejects_rational(self, capsys):
        assert main(["demo-circle", "--n", "16", "--rational"]) == 1
        assert "--rational" in capsys.readouterr().err

    @pytest.mark.parametrize("n, kappa", [("8", "1000"), ("200", "709")])
    def test_demo_circle_overflowing_concentration_is_exit_1(self, capsys, n, kappa):
        assert main(["demo-circle", "--n", n, "--mu-kappa", kappa]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"concentration {kappa}.0" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_key_is_exit_1_naming_file_and_key(self, tmp_path, capsys):
        path = tmp_path / "nokey.json"
        path.write_text('{"m": 2, "n": 2}\n')
        assert main(["check-extremal", str(path)]) == 1
        err = capsys.readouterr().err
        assert "nokey.json" in err and "'entries'" in err

    def test_check_extremal_builds_the_split_only_for_a_witness(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("split_witness called")

        monkeypatch.setattr(extremality, "split_witness", refuse)
        monkeypatch.setattr(cli, "split_witness", refuse)
        uniform = Coupling(2, 2, tuple((i, j, F(1, 4)) for i in range(2) for j in range(2)))
        assert is_extremal(uniform).verdict == "non-extremal"
        cyclic = tmp_path / "cyclic.json"
        write_coupling(cyclic, 2, 2, [[i, j, 0.25] for i in range(2) for j in range(2)])
        assert main(["check-extremal", str(cyclic)]) == 3
        assert capsys.readouterr().out == "non-extremal\n"

    def test_demo_report_counts_pivots(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["demo-circle", "--n", "16", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        solved = run_demo(DemoConfig(n=16)).solve_report
        assert payload["iterations"] == solved.iterations > 0
        assert payload["degenerate_pivots"] == solved.degenerate_pivots <= solved.iterations

    def test_demo_outputs_are_deterministic(self, tmp_path):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        for target in (first, second):
            assert main(["demo-circle", "--n", "10", "--out", str(target)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_rational_flag_keeps_solutions_exact(self, tmp_path):
        path = tmp_path / "p.json"
        write_problem(path, [0.5, 0.5], [0.2, 0.8], [[0.0, 1.0], [1.0, 0.0]])
        out = tmp_path / "g.json"
        assert main(["solve", str(path), "--rational", "--out", str(out)]) == 0
        gamma = load_coupling(out, rational=True)
        assert gamma.total_mass() == F(1)

    def test_version_subprocess(self):
        proc = run_python("-m", "limbsys.cli", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_import_does_not_load_numpy(self):
        proc = run_python("-c", "import sys, limbsys; print('numpy' in sys.modules)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"


FUZZ_VALUES = [0, 1, 2, 3, 0.25, 0.5, 2.0, 1e-13, 1e308, HUGE]


@st.composite
def cli_runs(draw):
    """A well-shaped problem and coupling file, and one verb to run on them."""
    value = st.sampled_from(FUZZ_VALUES)

    def values(size):
        return st.lists(value, min_size=size, max_size=size)

    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mu = draw(values(m))
    # Half the problems are balanced, so solve also gets past its checks.
    nu = list(mu) if draw(st.booleans()) else draw(values(n))
    cost = draw(st.lists(values(len(nu)), min_size=m, max_size=m))
    # Most cells are occupied, so cyclic supports are common.
    masses = draw(st.lists(st.sampled_from([None] * 2 + FUZZ_VALUES), min_size=m * n, max_size=m * n))
    entries = [[k // n, k % n, w] for k, w in enumerate(masses) if w is not None]
    # A cell listed twice is merged on load.
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), value).map(list)
    entries += draw(st.lists(cell, max_size=2))
    verb = draw(st.sampled_from(["solve", "check-extremal", "decompose"]))
    problem = {"mu": mu, "nu": nu, "cost": cost}
    return problem, {"m": m, "n": n, "entries": entries}, verb, draw(st.booleans())


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cli_runs())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path, run):
    problem, coupling, verb, rational = run
    problem_path, coupling_path = tmp_path / "p.json", tmp_path / "g.json"
    problem_path.write_text(json.dumps(problem))
    coupling_path.write_text(json.dumps(coupling))
    out = [str(tmp_path / name) for name in ("out.json", "duals.json")]
    argv = {
        "solve": ["solve", str(problem_path), "--out", out[0], "--duals", out[1]],
        "check-extremal": ["check-extremal", str(coupling_path), "--witness", out[0]],
        "decompose": ["decompose", str(coupling_path), "--out", out[0]],
    }[verb]
    assert main(argv + ["--rational"] * rational) in range(5)
