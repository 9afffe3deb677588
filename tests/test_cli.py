import argparse
import json
import sys

import pytest

from tourmod import (
    InputError,
    Tournament,
    VerificationResult,
    Xorshift64Star,
    brute_Delta,
    canonical_form,
    certificate_from_json,
    component_comodule,
    decomposability_index,
    enumerate_tournaments,
    format_tourn_v1,
    hereditary_witness,
    make_tournament,
    modular,
    parse_tourn_v1,
    random_tournament,
    sweep_verify,
    synthesize_certificate,
    transitive,
)
from tourmod import cli, inversion, oracle
from tourmod.cli import main

from conftest import composed_random, first_indecomposable, record_calls, run_python


def write_tourn(path, T):
    path.write_text(format_tourn_v1(T))
    return str(path)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Tournament(0, 0),
        lambda: make_tournament(0, []),
        lambda: parse_tourn_v1("tourn-v1\nn=0\nbits=\n"),
        lambda: certificate_from_json(
            '{"n": 0, "base_bits": "", "arcs": [], "trace": [], "final_bits": ""}'
        ),
        lambda: random_tournament(0, 1),
        lambda: canonical_form(transitive(10)),
        lambda: enumerate_tournaments(0),
        lambda: enumerate_tournaments(10),
        lambda: decomposability_index(transitive(4)),
        lambda: synthesize_certificate(transitive(4)),
        lambda: brute_Delta(transitive(17)),
        lambda: sweep_verify(2),
        lambda: sweep_verify(10),
        lambda: sweep_verify(5, jobs=0),
        lambda: hereditary_witness(transitive(9), 5),
        lambda: hereditary_witness(transitive(4), 2),
        lambda: component_comodule(transitive(2), transitive(2).vertex_set(), 0),
    ],
    ids=[
        "tournament-n0",
        "make-n0",
        "parse-n0",
        "certificate-json-n0",
        "random-n0",
        "canonical-n10",
        "enumerate-n0",
        "enumerate-n10",
        "decomposability-n4",
        "certificate-n4",
        "brute-Delta-n17",
        "sweep-max-n2",
        "sweep-max-n10",
        "sweep-jobs0",
        "hereditary-witness-k5",
        "hereditary-witness-n4",
        "component-comodule-n2",
    ],
)
def test_bounds_raise_input_error(call):
    # the one error main turns into exit 2; still a ValueError for callers
    assert issubclass(InputError, ValueError)
    with pytest.raises(InputError):
        call()


class TestGen:
    def test_transitive_bits(self, tmp_path):
        out = tmp_path / "t.tourn"
        assert main(["gen", "--type", "transitive", "--n", "6", "-o", str(out)]) == 0
        assert out.read_text() == "tourn-v1\nn=6\nbits=111111111111111\n"

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--type", "random", "--n", "6", "--seed", "9", "-o", str(a)])
        main(["gen", "--type", "random", "--n", "6", "--seed", "9", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_single_vertex(self, tmp_path):
        out = tmp_path / "one.tourn"
        main(["gen", "--type", "transitive", "--n", "1", "-o", str(out)])
        assert out.read_text() == "tourn-v1\nn=1\nbits=\n"

    def test_bad_flags_exit_two(self):
        args = ["-m", "tourmod", "gen", "--type", "spiral", "--n", "4", "-o", "x"]
        code, _, _ = run_python(args, 60)
        assert code == 2

    @pytest.mark.parametrize("n", [0, -5])
    @pytest.mark.parametrize("kind", ["transitive", "random"])
    def test_zero_vertices_exit_two(self, tmp_path, capsys, kind, n):
        out = tmp_path / "none.tourn"
        assert main(["gen", "--type", kind, "--n", str(n), "-o", str(out)]) == 2
        assert not out.exists() and "at least one vertex" in capsys.readouterr().err

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        assert main(["gen", "--type", "transitive", "--n", "3", "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_roundtrip_with_analyze(self, tmp_path):
        out = tmp_path / "r.tourn"
        main(["gen", "--type", "random", "--n", "7", "--seed", "3", "-o", str(out)])
        text = out.read_text()
        T = parse_tourn_v1(text)
        assert format_tourn_v1(T) == text
        assert main(["analyze", str(out)]) == 0


class TestAnalyze:
    def test_transitive_six(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "six.tourn", transitive(6))
        assert main(["analyze", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 6
        assert record["indecomposable"] is False
        assert record["Delta"] == 4
        assert record["delta"] == 2
        assert sorted(map(tuple, record["mc"])) == [
            (0,),
            (1, 2),
            (2, 3),
            (3, 4),
            (5,),
        ]
        assert record["components"] == [[0, 1, 2, 3, 4, 5]]
        assert sorted(map(tuple, record["delta_decomposition"])) == [
            (0,),
            (1, 2),
            (3, 4),
            (5,),
        ]

    def test_three_cycle_has_null_inversion_count(self, tmp_path, capsys, c3):
        path = write_tourn(tmp_path / "c3.tourn", c3)
        assert main(["analyze", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["indecomposable"] is True
        assert record["Delta"] == 0
        assert record["delta"] is None
        assert record["delta_decomposition"] == []

    def test_delta_is_decomposability_index(self, tmp_path, capsys, monkeypatch, c3):
        calls = record_calls(monkeypatch, cli, "decomposability_index")
        assert main(["analyze", write_tourn(tmp_path / "six.tourn", transitive(6))]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == 2
        # below five vertices delta is null and the index is not asked for
        assert main(["analyze", write_tourn(tmp_path / "c3.tourn", c3)]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] is None
        assert [T.n for T in calls] == [6]

    def test_prime_five_vertex(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "p5.tourn", first_indecomposable(5))
        assert main(["analyze", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["Delta"] == 0 and record["delta"] == 0

    def test_long_chain_finishes(self, tmp_path):
        # a 32-vertex chain once hung in the co-modular index; the timeout
        # turns a regression into a failure instead of a stalled suite
        path = write_tourn(tmp_path / "chain32.tourn", transitive(32))
        code, out, _ = run_python(["-m", "tourmod", "analyze", path], 60)
        assert code == 0
        assert json.loads(out)["Delta"] == 17

    def test_tree_built_once(self, tmp_path, capsys, monkeypatch):
        # the index, mc, the decomposition and the transitive components
        # are all read off one decomposition tree
        build = modular._tree
        builds = [
            record_calls(monkeypatch, module, "_tree")
            for name, module in list(sys.modules.items())
            if name.startswith("tourmod") and getattr(module, "_tree", None) is build
        ]
        path = write_tourn(tmp_path / "r.tourn", composed_random(Xorshift64Star(7), 12))
        assert main(["analyze", path]) == 0
        assert json.loads(capsys.readouterr().out)["components"]
        assert sum(map(len, builds)) == 1

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.tourn"
        bad.write_text("nonsense\n")
        assert main(["analyze", str(bad)]) == 2

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.tourn")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_foreign_line_ends_exit_two(self, tmp_path, capsys, newline):
        # the file is read as parse_tourn_v1 reads text: only "\n" ends a line
        bad = tmp_path / "t3.tourn"
        bad.write_bytes(format_tourn_v1(transitive(3)).encode().replace(b"\n", newline))
        assert main(["analyze", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestCertify:
    def test_five_chain(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "five.tourn", transitive(5))
        assert main(["certify", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["arcs"]) == 2

    def test_nine_chain_trace(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "nine.tourn", transitive(9))
        assert main(["certify", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["arcs"]) == 3
        assert record["trace"] == [5, 3, 2]

    def test_prime_input_empty_arcs(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "p.tourn", first_indecomposable(5))
        assert main(["certify", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["arcs"] == [] and record["trace"] == []

    def test_too_small_exit_two(self, tmp_path, c3):
        path = write_tourn(tmp_path / "c3.tourn", c3)
        assert main(["certify", path]) == 2

    def test_guided_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(T):
            raise ValueError("guided failure")

        monkeypatch.setattr(cli, "synthesize_certificate", broken)
        path = write_tourn(tmp_path / "five.tourn", transitive(5))
        with pytest.raises(ValueError, match="guided failure"):
            main(["certify", path])

    def test_failed_self_verification_exit_one(self, tmp_path, capsys, monkeypatch):
        failing = VerificationResult(False, "final decomposable")
        monkeypatch.setattr(cli, "verify_certificate", lambda T, cert: failing)
        path = write_tourn(tmp_path / "five.tourn", transitive(5))
        assert main(["certify", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "failed self-verification" in captured.err


class TestOracleCommand:
    def test_index_check_passes(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "six.tourn", transitive(6))
        assert main(["oracle", path, "--check", "Delta"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"check": "Delta", "guided": 4, "brute": 4, "agree": True}

    def test_inversion_check_passes(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "five.tourn", transitive(5))
        assert main(["oracle", path, "--check", "delta"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["guided"] == 2 and record["brute"] == 2 and record["agree"]

    def test_inversion_guided_side_is_decomposability_index(self, tmp_path, capsys, monkeypatch):
        calls = record_calls(monkeypatch, cli, "decomposability_index")
        path = write_tourn(tmp_path / "seven.tourn", transitive(7))
        assert main(["oracle", path, "--check", "delta"]) == 0
        assert json.loads(capsys.readouterr().out)["guided"] == 2
        assert [T.n for T in calls] == [7]

    def test_modules_check_on_prime(self, tmp_path, capsys, c3):
        path = write_tourn(tmp_path / "c3.tourn", c3)
        assert main(["oracle", path, "--check", "modules"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["guided"] == [] and record["brute"] == [] and record["agree"]

    def test_bound_violation_exit_two(self, tmp_path, c3):
        path = write_tourn(tmp_path / "c3.tourn", c3)
        assert main(["oracle", path, "--check", "delta"]) == 2

    @pytest.mark.parametrize("check", ["modules", "Delta", "delta"])
    def test_bound_checked_before_guided_side(self, tmp_path, capsys, monkeypatch, check):
        def refuse(T):
            raise AssertionError("the guided side ran past the oracle's bound")

        monkeypatch.setattr(cli, "nontrivial_modules", refuse)
        monkeypatch.setattr(cli, "comodular_index", refuse)
        monkeypatch.setattr(cli, "decomposability_index", refuse)
        path = write_tourn(tmp_path / "chain40.tourn", transitive(40))
        assert main(["oracle", path, "--check", check]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "limited to n <=" in err

    @pytest.mark.parametrize("check", ["Delta", "delta"])
    def test_sixteen_vertices_checked_seventeen_refused(self, tmp_path, capsys, check):
        # the one oracle bound, the 16-vertex subset scan, bounds both indices
        path = write_tourn(tmp_path / "chain16.tourn", transitive(16))
        assert main(["oracle", path, "--check", check]) == 0
        assert json.loads(capsys.readouterr().out)["agree"]
        path = write_tourn(tmp_path / "chain17.tourn", transitive(17))
        assert main(["oracle", path, "--check", check]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "limited to n <= 16" in err

    def test_guided_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(T):
            raise ValueError("guided failure")

        monkeypatch.setattr(cli, "comodular_index", broken)
        path = write_tourn(tmp_path / "six.tourn", transitive(6))
        with pytest.raises(ValueError, match="guided failure"):
            main(["oracle", path, "--check", "Delta"])

    def test_brute_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(T):
            raise ValueError("brute failure")

        monkeypatch.setattr(cli, "brute_Delta", broken)
        path = write_tourn(tmp_path / "six.tourn", transitive(6))
        with pytest.raises(ValueError, match="brute failure"):
            main(["oracle", path, "--check", "Delta"])


class TestSweepCommand:
    def test_max_n_five(self, tmp_path, capsys):
        assert main(["sweep", "--max-n", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["n"] for r in records] == [3, 4, 5]
        assert [r["max_Delta"] for r in records] == [2, 3, 3]
        assert records[2]["max_delta"] == 2
        assert all(r["violations"] == [] for r in records)

    def test_max_n_four_has_no_inversion_records(self, capsys):
        assert main(["sweep", "--max-n", "4"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
        assert [r["max_Delta"] for r in records] == [2, 3]
        assert all(r["max_delta"] is None for r in records)

    def test_bound_exit_two(self):
        assert main(["sweep", "--max-n", "10"]) == 2

    def test_extremal_values_have_one_definition(self):
        assert oracle._expected_max_index is inversion._expected_max_index
        assert oracle._expected_max_inversions is inversion._expected_max_inversions

    @pytest.mark.parametrize("name", ["_expected_max_index", "_expected_max_inversions"])
    def test_maxima_judged_against_the_paper(self, monkeypatch, name):
        higher = lambda n: getattr(inversion, name)(n) + 1
        monkeypatch.setattr(oracle, name, higher)
        assert main(["sweep", "--max-n", "5"]) == 1

    @pytest.mark.parametrize("max_n", ["2", "0", "-5"])
    def test_max_n_below_three_exit_two(self, capsys, max_n):
        assert main(["sweep", "--max-n", max_n]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_two(self, jobs):
        assert main(["sweep", "--max-n", "5", "--jobs", jobs]) == 2

    def test_max_n_eight(self):
        code, out, _ = run_python(["-m", "tourmod", "sweep", "--max-n", "8"], 300)
        assert code == 0
        assert out.splitlines()[-1] == (
            '{"n": 8, "class_count": 6880, "max_Delta": 5, "max_delta": 3, "violations": []}'
        )

    def test_jobs_do_not_change_output(self):
        code1, out1, _ = run_python(["-m", "tourmod", "sweep", "--max-n", "5", "--jobs", "1"], 120)
        code2, out2, _ = run_python(["-m", "tourmod", "sweep", "--max-n", "5", "--jobs", "3"], 120)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sweep_does_not_import_numpy(self):
        # runs the module as ``python -m tourmod sweep --max-n 5`` does, then
        # reports whether numpy was ever imported
        script = (
            "import runpy, sys\n"
            "sys.argv = ['tourmod', 'sweep', '--max-n', '5']\n"
            "try:\n"
            "    runpy.run_module('tourmod', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code)\n"
            "print('numpy' in sys.modules)\n"
        )
        code, out, err = run_python(["-c", script], 120)
        assert code == 0, err
        assert out.splitlines()[-2:] == ["exit 0", "False"]

    def test_import_does_not_load_multiprocessing(self):
        # only a sweep with --jobs above 1 needs a process pool
        script = (
            "import sys, tourmod.cli\n"
            "tourmod.cli.build_parser()\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        code, out, err = run_python(["-c", script], 60)
        assert code == 0, err
        assert out.split() == ["False"]


class TestRepeatedMain:
    """``main`` may be called many times in one process (the benchmark
    drives it in-process); the parser is built once and shared."""

    def test_parser_built_once(self, tmp_path, monkeypatch):
        path = write_tourn(tmp_path / "six.tourn", transitive(6))
        main(["analyze", path])
        built = record_calls(monkeypatch, argparse.ArgumentParser, "__init__")
        assert main(["analyze", path]) == 0
        assert main(["certify", path]) == 0
        assert main(["gen", "--type", "transitive", "--n", "4", "-o", str(tmp_path / "g")]) == 0
        with pytest.raises(SystemExit) as err:
            main(["gen", "--type", "spiral", "--n", "4", "-o", str(tmp_path / "x")])
        assert err.value.code == 2
        assert main(["analyze", path]) == 0
        assert built == []

    def test_handler_rebound_after_first_call(self, tmp_path, monkeypatch):
        # the perfbench tracer and tests rebind cli.cmd_* after the parser
        # exists; dispatch must find the rebound handler
        path = write_tourn(tmp_path / "six.tourn", transitive(6))
        assert main(["analyze", path]) == 0
        seen = []

        def patched(args):
            seen.append(args.file)
            return 7

        monkeypatch.setattr(cli, "cmd_analyze", patched)
        assert main(["analyze", path]) == 7
        assert seen == [path]

    def test_parse_error_leaves_no_state(self, tmp_path, capsys):
        path = write_tourn(tmp_path / "six.tourn", transitive(6))
        assert main(["analyze", path]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["analyze", path, "--check", "Delta"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == first
