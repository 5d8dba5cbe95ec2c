import json
import os
import subprocess
import sys

import pytest

import treedom
from treedom import (
    certificate_from_text,
    double_star,
    parse_edge_list,
    parse_graph6,
    path,
    random_tree,
    serialize_edge_list,
    star,
    verify_certificate,
)
from treedom.cli import main


def write_tree(tmp_path, tree, name="tree.txt"):
    p = tmp_path / name
    p.write_text(serialize_edge_list(tree))
    return str(p)


class TestCompute:
    def test_text(self, tmp_path, capsys):
        rc = main(["compute", write_tree(tmp_path, path(4))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "beta: 2" in out and "tcoi: 2" in out

    def test_json(self, tmp_path, capsys):
        rc = main(["compute", write_tree(tmp_path, path(6)), "--output", "json"])
        d = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (d["beta"], d["gamma_t"], d["tcoi"]) == (3, 4, 4)
        assert d["tcoi_witness"] == [0, 1, 3, 4]

    def test_p2_undefined_tcoi_still_ok(self, tmp_path, capsys):
        rc = main(["compute", write_tree(tmp_path, path(2))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tcoi: undefined" in out

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 3\n"))
        rc = main(["compute", "-"])
        assert rc == 0
        assert "n: 4" in capsys.readouterr().out

    def test_graph6_input(self, tmp_path, capsys):
        p = tmp_path / "t.g6"
        p.write_text("Ch\n")
        rc = main(["compute", str(p)])
        assert rc == 0
        assert "n: 4" in capsys.readouterr().out


class TestCheck:
    def test_positive(self, tmp_path, capsys):
        rc = main(["check", "tbeta", write_tree(tmp_path, path(4))])
        assert rc == 0 and capsys.readouterr().out.strip() == "true"

    def test_negative(self, tmp_path, capsys):
        rc = main(["check", "tbeta", write_tree(tmp_path, path(6))])
        assert rc == 1 and capsys.readouterr().out.strip() == "false"

    def test_tl_and_structural(self, tmp_path, capsys):
        f = write_tree(tmp_path, path(6))
        assert main(["check", "tl", f]) == 0
        assert main(["check", "structural", f]) == 0
        capsys.readouterr()

    def test_undefined_is_usage_error(self, tmp_path, capsys):
        rc = main(["check", "tbeta", write_tree(tmp_path, star(5))])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCertify:
    def test_member(self, tmp_path, capsys):
        ds = double_star(3, 3)
        rc = main(["certify", write_tree(tmp_path, ds)])
        out = capsys.readouterr().out
        assert rc == 0
        cert = certificate_from_text(out)
        assert verify_certificate(cert, ds)

    def test_not_member(self, tmp_path, capsys):
        rc = main(["certify", write_tree(tmp_path, path(6))])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "NOT_MEMBER"


class TestGenerate:
    @pytest.mark.parametrize(
        "argv,n",
        [
            (["generate", "path", "--n", "7"], 7),
            (["generate", "star", "--n", "6"], 6),
            (["generate", "doublestar", "--a", "2", "--b", "3"], 7),
            (["generate", "comb", "--k", "4"], 8),
            (["generate", "qr", "--r", "5"], 13),
            (["generate", "familyf", "--b", "1", "--d", "1"], 15),
            (["generate", "random", "--n", "9", "--seed", "3"], 9),
        ],
    )
    def test_families(self, argv, n, capsys):
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert parse_edge_list(out).n == n

    def test_graph6_output(self, capsys):
        rc = main(["generate", "path", "--n", "4", "--to", "graph6"])
        out = capsys.readouterr().out.strip()
        assert rc == 0 and out == "Ch"
        assert parse_graph6(out).n == 4

    def test_round_trip_through_compute(self, tmp_path, capsys):
        rc = main(["generate", "qr", "--r", "5"])
        text = capsys.readouterr().out
        p = tmp_path / "q5.txt"
        p.write_text(text)
        rc2 = main(["compute", str(p)])
        out = capsys.readouterr().out
        assert rc == 0 and rc2 == 0
        assert "n: 13" in out

    def test_seed_determinism(self, capsys):
        main(["generate", "random", "--n", "8", "--seed", "42"])
        a = capsys.readouterr().out
        main(["generate", "random", "--n", "8", "--seed", "42"])
        b = capsys.readouterr().out
        assert a == b

    def test_graph6_output_capped(self, capsys):
        rc = main(["generate", "path", "--n", "4097", "--to", "graph6"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "--to edgelist" in captured.err

    def test_bad_parameter(self, capsys):
        rc = main(["generate", "qr", "--r", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCensusVerify:
    def test_census_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        rc = main(["census", "--max-n", "7", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("canon,n,diam")
        assert len(lines) == 1 + (1 + 2 + 3 + 6 + 11)
        report = json.loads(err)
        assert report["all_hold"] is True

    def test_verify_clean_range(self, capsys):
        rc = main(["verify", "--max-n", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all theorems hold" in out

    def test_json_text_agreement_on_random_trees(self, tmp_path, capsys):
        for seed in range(100):
            t = random_tree(6 + seed % 5, seed)
            f = write_tree(tmp_path, t, f"r{seed}.txt")
            assert main(["compute", f, "--output", "json"]) == 0
            d = json.loads(capsys.readouterr().out)
            assert main(["compute", f]) == 0
            text = capsys.readouterr().out
            for key in ("n", "beta", "gamma_t", "tcoi"):
                val = d[key]
                assert f"{key}: {val if val is not None else 'undefined'}" in text


class TestUsageErrors:
    def test_missing_file(self, capsys):
        assert main(["compute", "/nonexistent/file.txt"]) == 2

    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_input(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n1 2\n2 0\n")
        assert main(["compute", str(p)]) == 2

    @pytest.mark.parametrize(
        "args,data",
        [
            (["compute", "FILE"], "0 1\n2 \u00e9\n"),
            # an Arabic-Indic zero, which int() would read as 0
            (["compute", "-"], "\u0660 1\n1 2\n"),
        ],
        ids=["file", "stdin"],
    )
    def test_non_ascii_input(self, tmp_path, args, data):
        # run as a process so an uncaught decode error shows as a traceback
        p = tmp_path / "t.txt"
        p.write_text(data, encoding="utf-8")
        args = [str(p) if a == "FILE" else a for a in args]
        src = os.path.dirname(os.path.dirname(treedom.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        r = subprocess.run(
            [sys.executable, "-m", "treedom.cli", *args],
            input=data.encode("utf-8"), capture_output=True, env=env, timeout=60,
        )
        assert r.returncode == 2
        assert r.stderr.startswith(b"error:")
        assert b"Traceback" not in r.stderr
