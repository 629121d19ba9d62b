"""File formats and the command-line front end."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import limbsys
from limbsys import Coupling, DemoConfig, circle, cli, extremality, is_extremal, run_demo, solve, transport
from limbsys import CostMatrix, decompose, marginals_of, support_graph, tv_distance
from limbsys.circle import SubtwistReport
from limbsys.cli import main
from limbsys.io import (
    _fraction,
    canonical_json,
    coupling_payload,
    duals_payload,
    load_coupling,
    load_problem,
    load_system,
    system_payload,
    witness_payload,
    write_json,
)

import oracles


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
        assert canonical_json([0.5, 1.0, 1 / 3]) == "[0.5, 1.0, 0.3333333333333333]\n"

    def test_fraction_becomes_float(self):
        assert canonical_json(F(1, 4)) == "0.25\n"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))

    def test_mixed_scalars(self):
        payload = {
            "z": [None, True, False, 0, -7, 2**70],
            "a": [0.1, -2.5, F(1, 3), F(3)],
            "s": ["x\"y", "é"],
        }
        assert canonical_json(payload) == (
            '{"a": [0.1, -2.5, 0.3333333333333333, 3.0], '
            '"s": ["x\\"y", "\\u00e9"], "z": [null, true, false, 0, -7, 1180591620717411303424]}\n'
        )

    def test_unsupported_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            canonical_json({"x": object()})


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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.from_regex(r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,40})?([eE][-+]?[0-9]{1,3})?", fullmatch=True)
        .filter(lambda lit: "." in lit or "e" in lit.lower())  # what json hands parse_float
    )
    @example("-0.0")
    @example("-0.5e-0")
    @example("1E+000")
    # A mantissa of 6,001 digits, beyond the int digit limit in one piece;
    # Fraction reads its whole and fraction digits apart.
    @example("-" + "1" * 3000 + "." + "2" * 3000)
    def test_rational_literals_parse_as_fraction_would(self, literal):
        # The loader builds each Fraction from the literal's digits; it must
        # equal Fraction(str) in value and type, whatever json hands it.
        parsed = _fraction(literal)
        assert parsed == F(literal) and type(parsed) is F
        assert json.loads(f"[{literal}]", parse_float=_fraction) == [F(literal)]

    def test_coupling_round_trip(self, tmp_path):
        gamma = Coupling(2, 3, ((0, 1, 0.25), (1, 2, 0.75)))
        path = tmp_path / "g.json"
        write_json([(path, coupling_payload(gamma))])
        assert load_coupling(path) == gamma

    def test_float_coupling_round_trip_keeps_values_and_type(self, tmp_path):
        gamma = Coupling(2, 2, ((0, 0, 1.0), (1, 1, 0.1)))
        path = tmp_path / "g.json"
        write_json([(path, coupling_payload(gamma))])
        assert path.read_text() == '{"entries": [[0, 0, 1.0], [1, 1, 0.1]], "m": 2, "n": 2}\n'
        loaded = load_coupling(path)
        assert loaded == gamma
        assert [type(w) for _, _, w in loaded.entries] == [float, float]

    def test_system_round_trip(self, tmp_path):
        from limbsys import decompose, support_graph

        gamma = Coupling(3, 3, tuple((i, 0 if i < 2 else 2, 0.3) for i in range(3)))
        system = decompose(support_graph(gamma))
        path = tmp_path / "s.json"
        write_json([(path, system_payload(system))])
        assert load_system(path) == system

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 6), st.integers(2, 6), st.booleans())
    def test_payloads_render_as_their_list_copies(self, seed, m, n, exact):
        # The payloads hand their values' own tuples to the writer, which
        # must render them byte for byte as the lists they once copied.
        def unit(p, q):
            return F(p, q) if exact else p / q

        rng = random.Random(seed)
        cells = sorted(oracles.random_forest_cells(rng, m, n))
        gamma = Coupling(m, n, tuple((i, j, unit(rng.randint(1, 99), 7)) for i, j in cells))
        full = Coupling(m, n, tuple((i, j, unit(rng.randint(1, 99), 7)) for i in range(m) for j in range(n)))
        cycle = is_extremal(full).cycle
        gamma0, gamma1 = extremality.split_witness(full, cycle)
        system = decompose(support_graph(gamma))
        mu, nu = marginals_of(gamma)
        cost = CostMatrix(tuple(tuple(unit(rng.randint(-9, 9), 4) for _ in range(n)) for _ in range(m)))
        report = solve(mu, nu, cost)

        def listed(g):
            return {"m": g.m, "n": g.n, "entries": [[i, j, w] for i, j, w in g.entries]}

        pairs = [
            (coupling_payload(gamma), listed(gamma)),
            (
                system_payload(system),
                {
                    "m": system.m,
                    "n": system.n,
                    "limbs": [
                        {"k": limb.k, "kind": limb.kind, "map": [[s, d] for s, d in limb.pairs]}
                        for limb in system.limbs
                    ],
                    "I_odd": list(system.x_levels),
                    "I_even": list(system.y_levels),
                },
            ),
            (
                witness_payload(cycle, gamma0, gamma1),
                {"cycle": [[i, j] for i, j in cycle.edges], "gamma0": listed(gamma0), "gamma1": listed(gamma1)},
            ),
            (
                duals_payload(report.potentials, report.primal_value),
                {"q": list(report.potentials.q), "r": list(report.potentials.r), "value": report.primal_value},
            ),
        ]
        for payload, copied in pairs:
            assert canonical_json(payload) == canonical_json(copied)


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

    def test_rational_solve_unbalanced_is_exit_2_without_traceback(self, tmp_path):
        path = tmp_path / "p.json"
        write_problem(path, [0.1, 0.2], [0.15, 0.1], [[0, 1], [1, 0]])
        proc = run_python("-m", "limbsys.cli", "solve", "--rational", str(path))
        assert proc.returncode == 2
        assert proc.stderr == (
            "infeasible: total masses differ: first marginal carries Fraction(3, 10), "
            "second Fraction(1, 4); no coupling has both for marginals\n"
        )

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
            ('{"mu": [true], "nu": [1], "cost": [[true]]}', "weight at index 0 is not a finite number: True"),
            ('{"mu": [1], "nu": [1], "cost": [[false]]}', "cost at (0, 0) is not a finite number: False"),
            ('{"mu": [1], "nu": [1]}', "problem file has no cost matrix"),
        ],
        ids=["negative-mass", "limb-0", "boolean-mass", "boolean-cost", "no-cost"],
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
            # JSON true and false would pass for the ints 1 and 0.
            ("decompose", '{"m": 2, "n": 2, "entries": [[true, false, 0.5], [false, true, 0.5]]}'),
            ("check-extremal", '{"m": true, "n": 1, "entries": [[0, 0, 1]]}'),
            ("reconstruct", one_limb_system(k=True, level=True).replace('"I_even": [0]', '"I_even": [false]')),
            ("reconstruct", one_limb_system(level=True)),
            ("reconstruct", one_limb_system(pair=[0, False])),
        ],
        ids=[
            "coupling-check", "coupling-decompose", "entry-column",
            "limb-and-level", "limb", "level", "system-size", "map",
            "boolean-entries", "boolean-size", "boolean-limb-and-levels", "boolean-level", "boolean-map",
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

    @pytest.mark.parametrize(
        "extra, where, literal",
        [
            ('"note": true', "note", "true"),
            ('"note": {"x": [0, false]}', "note.x[1]", "false"),
            ('"deep": ' + "[" * 600 + "true" + "]" * 600, "deep" + "[0]" * 600, "true"),
        ],
        ids=["unknown-key", "nested-unknown-key", "600-deep"],
    )
    def test_a_boolean_anywhere_is_exit_1_naming_where(self, tmp_path, capsys, extra, where, literal):
        # No verb reads these keys, yet a JSON boolean loads nowhere.
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 1, "n": 1, "entries": [[0, 0, 1]], ' + extra + "}")
        assert main(["check-extremal", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: {where} is JSON {literal}, which cannot be interpreted as an integer\n"
        )

    @pytest.mark.parametrize("literal", ["1e5000", "1E-5000", "1e10000000"])
    def test_rational_exponent_beyond_the_digit_limit_is_exit_1(self, tmp_path, capsys, literal):
        # Fraction would build 10**e in full: 1e10000000 alone takes seconds.
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"mu": [{literal}], "nu": [1], "cost": [[0]]}}')
        assert main(["solve", "--rational", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "exponent" in err
        assert len(err.strip().splitlines()) == 1

    def test_exponent_limit_without_get_int_max_str_digits(self, tmp_path, capsys, monkeypatch):
        # Python before 3.10.7 has no sys.get_int_max_str_digits; the limit
        # is then CPython's default, 4300 digits.
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        path = tmp_path / "p.json"
        path.write_text('{"mu": [1e400, 5e399], "nu": [1.5e400], "cost": [[0], [1]]}')
        mu, _, _ = load_problem(path, rational=True)
        assert mu.weights == (F(10**400), F(5 * 10**399))
        path.write_text('{"mu": [1e4301], "nu": [1], "cost": [[0]]}')
        assert main(["solve", "--rational", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: a number's exponent exceeds the limit (4300) for integer literals\n"

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

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("second", ["o.json", "./o.json"])
    @pytest.mark.parametrize("verb", ["solve", "demo-circle"])
    def test_two_outputs_naming_one_file_are_exit_1(
        self, tmp_path, balanced_problem, capsys, monkeypatch, verb, second, existing
    ):
        # Written one after the other, the second output would replace or
        # garble the first; neither is written.
        monkeypatch.chdir(tmp_path)
        first = tmp_path / "o.json"
        if existing:
            first.write_text("kept\n")
        if verb == "solve":
            argv = ["solve", str(balanced_problem), "--out", "o.json", "--duals", second]
        else:
            argv = ["demo-circle", "--n", "12", "--out", "o.json", "--plot", second]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: outputs o.json and {second} name the same file\n"
        assert first.read_bytes() == b"kept\n" if existing else not first.exists()

    def test_outputs_may_share_a_device(self, balanced_problem):
        # Only regular files are emptied and compared; /dev/null takes both.
        argv = ["solve", str(balanced_problem), "--out", os.devnull, "--duals", os.devnull]
        assert main(argv) == 0

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
        + [(verb, '{"m": 2, "n": 2, "entries": [[0]]}') for verb in ("check-extremal", "decompose")]
        # Text the parser gives up on: nested too deep, an integer too long.
        + [
            pytest.param("check-extremal", "[" * 100_000, id="nested-too-deep"),
            pytest.param("decompose", '{"m": ' + "1" * 5000 + "}", id="integer-too-long"),
        ],
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

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize(
        "verb, flag, content",
        [
            (verb, flag, json.dumps({"m": 2, "n": 2, "entries": entries}))
            for entries in (
                [[0, 0, 0.25, 7], [0, 1, 0.25], [1, 0, 0.25], [1, 1, 0.25]],
                [[0, 0, 0.25], [0, 1], [1, 0, 0.25], [1, 1, 0.25]],
            )
            for verb, flag in (("check-extremal", None), ("check-extremal", "--witness"), ("decompose", "--out"))
        ]
        + [("reconstruct", "--out", one_limb_system(pair=pair)) for pair in ([0], [0, 0, 1])],
        ids=[
            f"{size}-entry-{verb}" for size in ("long", "short") for verb in ("check", "witness", "decompose")
        ]
        + ["short-map-pair", "long-map-pair"],
    )
    def test_entries_of_the_wrong_length_are_exit_1_writing_nothing(
        self, tmp_path, capsys, verb, flag, content, rational, existing
    ):
        # A coupling entry holds exactly three numbers and a map pair two:
        # an extra number is refused, not dropped, and no output is opened.
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_text(content)
        argv = [verb, str(bad)]
        if verb == "reconstruct":
            write_problem(tmp_path / "p.json", [1], [1])
            argv.append(str(tmp_path / "p.json"))
        if flag:
            argv += [flag, str(out)]
        if rational:
            argv.append("--rational")
        if existing:
            out.write_text("kept\n")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1
        assert out.read_text() == "kept\n" if existing else not out.exists()

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize(
        "verb, content, named",
        [
            (
                "check-extremal",
                json.dumps({"m": 2, "n": 2, "entries": [[0, 0, 0.25], [0, 1, 0.25, 7], [1, 0, 0.5]]}),
                "entries[1] holds 4 numbers, not 3",
            ),
            (
                "decompose",
                json.dumps({"m": 2, "n": 2, "entries": [[1, 1, -0.5], [0, 0, 0.5], [0, 1]]}),
                "entries[2] holds 2 numbers, not 3",
            ),
            (
                "reconstruct",
                json.dumps({
                    "m": 2,
                    "n": 2,
                    "limbs": [
                        {"k": 1, "kind": "graph", "map": [[0, 0], [1, 0]]},
                        {"k": 2, "kind": "antigraph", "map": [[1, 1, 0]]},
                    ],
                    "I_odd": [1, 1],
                    "I_even": [0, 2],
                }),
                "limbs[1].map[0] holds 3 numbers, not 2",
            ),
            ("reconstruct", one_limb_system(pair=[0]), "limbs[0].map[0] holds 1 number, not 2"),
            # A limb unpacks its map before it checks k, so the pair is the fault named.
            ("reconstruct", one_limb_system(k=0, pair=[0, 0, 1]), "limbs[0].map[0] holds 3 numbers, not 2"),
        ],
        ids=["long-entry", "short-entry", "long-map-pair", "short-map-pair", "limb-0-long-map-pair"],
    )
    def test_an_entry_of_the_wrong_length_is_named(self, tmp_path, capsys, verb, content, named, rational):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv = [verb, str(bad)]
        if verb == "reconstruct":
            write_problem(tmp_path / "p.json", [1] * 2, [1] * 2)
            argv.append(str(tmp_path / "p.json"))
        if verb != "check-extremal":
            argv += ["--out", str(tmp_path / "out.json")]
        if rational:
            argv.append("--rational")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: {named}\n"

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

    @pytest.mark.parametrize("duals", [False, True])
    def test_optimum_value_beyond_float_range_is_exit_1(self, tmp_path, capsys, duals):
        path, out, dual_path = tmp_path / "p.json", tmp_path / "out.json", tmp_path / "d.json"
        write_problem(path, [1e300, 1e300], [1e300, 1e300], [[1e10, 1e10], [1e10, 1e10]])
        argv = ["solve", str(path), "--out", str(out)] + (["--duals", str(dual_path)] if duals else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the optimum value")
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists() and not dual_path.exists()

    def test_finite_optimum_near_the_float_maximum_is_exit_0(self, tmp_path, capsys):
        # A dual partial sum overflows, but the optimum value 1.625e308 does not.
        path, out, dual_path = tmp_path / "p.json", tmp_path / "out.json", tmp_path / "d.json"
        write_problem(path, [5e307, 1e308], [1.875e307, 5.625e307, 7.5e307], [[0.5, 2.0, 4.0], [0.0, 4.0, 0.5]])
        assert main(["solve", str(path), "--out", str(out), "--duals", str(dual_path)]) == 0
        assert "1.625e+308" in capsys.readouterr().out
        assert json.loads(dual_path.read_text()) == {"q": [-2.0, 0.0], "r": [0.0, 4.0, 0.5], "value": 1.625e308}

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

    def test_decompose_cyclic_names_the_cycle(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        write_coupling(full, 2, 2, [[i, j, 0.25] for i in range(2) for j in range(2)])
        assert main(["decompose", str(full), "--out", str(tmp_path / "s.json")]) == 3
        assert capsys.readouterr().err == (
            "cyclic support: support contains an alternating cycle through rows [0, 1] and columns [0, 1]\n"
        )

    def test_reconstruct_invalid_system_names_the_violations(self, tmp_path, balanced_problem, capsys):
        # Limb 1 maps row 1 to column 1, which sits in I_2.
        limb = {"k": 1, "kind": "graph", "map": [[0, 0], [1, 1]]}
        system = tmp_path / "system.json"
        system.write_text(
            json.dumps({"m": 2, "n": 2, "limbs": [limb], "I_odd": [1, 1], "I_even": [0, 2]}) + "\n"
        )
        argv = ["reconstruct", str(system), str(balanced_problem), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: limb system is invalid: limb 1: image point 1 sits in I_2, not I_0\n"
        )
        assert not (tmp_path / "r.json").exists()

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
        assert {name: payload[name] for name in vars(DemoConfig(n=12))} == vars(DemoConfig(n=12))
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
        fields = vars(DemoConfig())
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

    def test_rational_pipeline_round_trips_exactly(self, tmp_path):
        # Short decimals print as themselves, so the solved coupling reads
        # back exactly under --rational and reconstruct rebuilds its bytes.
        path = tmp_path / "p.json"
        write_problem(path, [0.1, 0.2], [0.15, 0.15], [[0, 1], [1, 0]])
        solved, system, rebuilt = (tmp_path / f"{name}.json" for name in ("solved", "system", "rebuilt"))
        assert main(["solve", str(path), "--rational", "--out", str(solved)]) == 0
        assert main(["decompose", str(solved), "--rational", "--out", str(system)]) == 0
        assert main(["reconstruct", str(system), str(path), "--rational", "--out", str(rebuilt)]) == 0
        assert load_coupling(solved, rational=True) == solve(*load_problem(path, rational=True)).coupling
        assert rebuilt.read_bytes() == solved.read_bytes()

    @pytest.mark.parametrize(
        "mu, nu, cost, cell",
        [
            ([2.0, 1.0], [1.0, 2.0], [[0, 1], [1, 0]], "[0, 0, 1.0]"),
            ([2, 1.5], [0.5, 3.0], [[0, 1.5], [2, 0]], "[0, 1, 1.5]"),
            ([1, 2, 3], [3, 3.0], [[1, 0], [0, 2.0], [1, 1]], "[0, 1, 1.0]"),
            ([2, 1], [1, 2], [[0, 1.0], [1, 0]], "[0, 0, 1]"),
        ],
    )
    def test_rational_pipeline_rebuilds_mixed_literals_byte_for_byte(self, tmp_path, mu, nu, cost, cell):
        # Masses holding a Fraction, even a whole one read from `2.0`, give
        # Fraction results from solve and reconstruct alike; int masses
        # alone give ints from both.
        path = tmp_path / "p.json"
        write_problem(path, mu, nu, cost)
        solved, system, rebuilt = (tmp_path / f"{name}.json" for name in ("solved", "system", "rebuilt"))
        assert main(["solve", str(path), "--rational", "--out", str(solved)]) == 0
        assert main(["decompose", str(solved), "--rational", "--out", str(system)]) == 0
        assert main(["reconstruct", str(system), str(path), "--rational", "--out", str(rebuilt)]) == 0
        assert cell in solved.read_text()
        assert rebuilt.read_bytes() == solved.read_bytes()

    def test_stray_flow_is_exit_1_without_traceback(self, tmp_path, monkeypatch, capsys):
        check = transport._check_instance
        monkeypatch.setattr(transport, "_check_instance", lambda *data: check(*data)._replace(nu=[1, 3]))
        path = tmp_path / "p.json"
        write_problem(path, [1, 1], [1, 1], [[0, 1], [1, 0]])
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == "error: the artificial arcs still carry 2, at column 1\n"

    def test_demo_circle_failing_the_subtwist_scan_is_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(circle, "subtwist_check", lambda *_, **__: SubtwistReport(((0, 1),), ()))
        assert main(["demo-circle", "--n", "8"]) == 1
        assert capsys.readouterr().err == "error: circle cost failed the subtwist scan at pairs ((0, 1),)\n"

    def test_version_subprocess(self):
        proc = run_python("-m", "limbsys.cli", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_import_does_not_load_numpy(self):
        proc = run_python("-c", "import sys, limbsys; print('numpy' in sys.modules)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"


class TestParserReuse:
    """One parser serves every call of a process; calls through it must
    behave as calls through a parser built afresh."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_match_fresh_ones(self, tmp_path, capsys):
        problem, cyclic, out = tmp_path / "p.json", tmp_path / "cyclic.json", tmp_path / "out"
        write_problem(problem, [0.1, 0.2], [0.15, 0.15], [[0, 1], [1, 0]])
        write_coupling(cyclic, 2, 2, [[i, j, 0.25] for i in range(2) for j in range(2)])
        calls = [
            ["solve", str(problem), "--out", f"{out}/solved.json", "--duals", f"{out}/duals.json"],
            ["solve", str(problem), "--rational", "--out", f"{out}/exact.json"],
            ["decompose", f"{out}/exact.json", "--rational", "--out", f"{out}/system.json"],
            ["solve", str(problem), "--bogus"],
            ["reconstruct", f"{out}/system.json", str(problem), "--rational", "--out", f"{out}/rebuilt.json"],
            ["reconstruct", f"{out}/system.json", str(problem), "--out", f"{out}/float.json"],
            ["check-extremal", str(cyclic), "--witness", f"{out}/witness.json"],
            ["check-extremal", str(cyclic), "--rational"],
            ["--version"],
            ["decompose", str(cyclic), "--out", f"{out}/cyclic-system.json"],
            ["decompose", f"{out}/solved.json", "--out", f"{out}/float-system.json"],
            ["reconstruct"],
            ["demo-circle", "--n", "8", "--rational"],
            ["check-extremal", f"{out}/solved.json"],
            ["solve", str(problem), "--rational", "--duals", f"{out}/exact-duals.json"],
        ]

        def run_all(fresh):
            out.mkdir()
            seen = []
            for argv in calls:
                if fresh:
                    cli.build_parser.cache_clear()
                code = main(argv)
                seen.append((argv, code, *capsys.readouterr()))
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            for path in out.iterdir():
                path.unlink()
            out.rmdir()
            return seen, files

        fresh = run_all(fresh=True)
        cli.build_parser.cache_clear()
        reused = [run_all(fresh=False) for _ in range(2)]
        assert cli.build_parser.cache_info().misses == 1
        assert reused[0] == reused[1] == fresh
        codes = [code for _, code, _, _ in fresh[0]]
        assert codes == [0, 0, 0, 1, 0, 0, 3, 3, 0, 3, 0, 1, 1, 0, 0]
        assert len(fresh[1]) == 9


FUZZ_VALUES = [0, 1, 2, 3, 0.25, 0.5, 2.0, 1e-13, 1e308, HUGE, True, False, [0], "1", math.nan]


@st.composite
def cli_runs(draw):
    """A well-shaped problem and coupling file, and one verb to run on them;
    for reconstruct, a problem and limb-system file of their own."""
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
    verb = draw(st.sampled_from(["solve", "check-extremal", "decompose", "reconstruct"]))
    problem, system = {"mu": mu, "nu": nu, "cost": cost}, None
    if verb == "reconstruct":
        problem, system = draw(reconstruct_files(m, n))
    return problem, {"m": m, "n": n, "entries": entries}, system, verb, draw(st.booleans())


@st.composite
def reconstruct_files(draw, m, n):
    """A problem and a limb-system file on the m x n grid.  The system's
    limb numbers, kinds, levels and map entries, and the masses, come from
    small ranges; in half the pairs each may also be a fuzz value or an
    index off the grid."""
    wild = draw(st.booleans())

    def field(small):
        return st.one_of(small, st.sampled_from(FUZZ_VALUES + [-1, max(m, n)])) if wild else small

    def fields(small, size):
        return draw(st.lists(field(small), min_size=size, max_size=size))

    point = field(st.integers(0, max(m, n) - 1))
    limbs = [
        {
            "k": draw(field(st.just(k))),
            "kind": draw(field(st.just("graph" if k % 2 else "antigraph"))),
            # One pair per source, so most maps are single-valued; keyed by
            # str, as a fuzz value may be a list.
            "map": draw(st.lists(st.tuples(point, point), max_size=3, unique_by=lambda p: str(p[0]))),
        }
        for k in sorted(draw(st.sets(st.integers(1, 4), max_size=3)))
    ]
    mass = st.sampled_from([0, 1, 2, 0.5])
    problem = {"mu": fields(mass, m), "nu": fields(mass, n)}
    levels = {"I_odd": fields(st.sampled_from([1, 3]), m), "I_even": fields(st.sampled_from([0, 2]), n)}
    return problem, {"m": m, "n": n, "limbs": limbs, **levels}


@settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cli_runs())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path, run):
    problem, coupling, system, verb, rational = run
    problem_path, coupling_path, system_path = tmp_path / "p.json", tmp_path / "g.json", tmp_path / "s.json"
    problem_path.write_text(json.dumps(problem))
    coupling_path.write_text(json.dumps(coupling))
    system_path.write_text(json.dumps(system))
    out = [str(tmp_path / name) for name in ("out.json", "duals.json")]
    argv = {
        "solve": ["solve", str(problem_path), "--out", out[0], "--duals", out[1]],
        "check-extremal": ["check-extremal", str(coupling_path), "--witness", out[0]],
        "decompose": ["decompose", str(coupling_path), "--out", out[0]],
        "reconstruct": ["reconstruct", str(system_path), str(problem_path), "--out", out[0]],
    }[verb]
    assert main(argv + ["--rational"] * rational) in range(5)
