import json
import subprocess
import sys

import pytest

from tourmod import Xorshift64Star, format_tourn_v1, modular, parse_tourn_v1, transitive
from tourmod.cli import main

from conftest import composed_random


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "tourmod", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_tourn(path, T):
    path.write_text(format_tourn_v1(T))
    return str(path)


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
        code, _, _ = run_cli("gen", "--type", "spiral", "--n", "4", "-o", "x")
        assert code == 2

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

    def test_prime_five_vertex(self, tmp_path, capsys):
        from tourmod import enumerate_tournaments, is_indecomposable

        T = next(t for t in enumerate_tournaments(5) if is_indecomposable(t))
        path = write_tourn(tmp_path / "p5.tourn", T)
        assert main(["analyze", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["Delta"] == 0 and record["delta"] == 0

    def test_long_chain_finishes(self, tmp_path):
        # a 32-vertex chain once hung in the co-modular index; the timeout
        # turns a regression into a failure instead of a stalled suite
        path = write_tourn(tmp_path / "chain32.tourn", transitive(32))
        proc = subprocess.run(
            [sys.executable, "-m", "tourmod", "analyze", path],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["Delta"] == 17

    def test_tree_built_once(self, tmp_path, capsys, monkeypatch):
        # the index, mc, the decomposition and the transitive components
        # are all read off one decomposition tree
        builds = []
        build = modular._tree

        def counting(T):
            builds.append(T)
            return build(T)

        for name, module in list(sys.modules.items()):
            if name.startswith("tourmod") and getattr(module, "_tree", None) is build:
                monkeypatch.setattr(module, "_tree", counting)
        path = write_tourn(tmp_path / "r.tourn", composed_random(Xorshift64Star(7), 12))
        assert main(["analyze", path]) == 0
        assert json.loads(capsys.readouterr().out)["components"]
        assert len(builds) == 1

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.tourn"
        bad.write_text("nonsense\n")
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(bad)])
        assert err.value.code == 2


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
        from tourmod import enumerate_tournaments, is_indecomposable

        T = next(t for t in enumerate_tournaments(5) if is_indecomposable(t))
        path = write_tourn(tmp_path / "p.tourn", T)
        assert main(["certify", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["arcs"] == [] and record["trace"] == []

    def test_too_small_exit_two(self, tmp_path, c3):
        path = write_tourn(tmp_path / "c3.tourn", c3)
        assert main(["certify", path]) == 2


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

    def test_modules_check_on_prime(self, tmp_path, capsys, c3):
        path = write_tourn(tmp_path / "c3.tourn", c3)
        assert main(["oracle", path, "--check", "modules"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["guided"] == [] and record["brute"] == [] and record["agree"]

    def test_bound_violation_exit_two(self, tmp_path, c3):
        path = write_tourn(tmp_path / "c3.tourn", c3)
        assert main(["oracle", path, "--check", "delta"]) == 2


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
        assert main(["sweep", "--max-n", "8"]) == 2

    def test_jobs_do_not_change_output(self):
        code1, out1, _ = run_cli("sweep", "--max-n", "5", "--jobs", "1")
        code2, out2, _ = run_cli("sweep", "--max-n", "5", "--jobs", "3")
        assert code1 == code2 == 0
        assert out1 == out2
