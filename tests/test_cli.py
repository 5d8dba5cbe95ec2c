import json
import os
import subprocess
import sys

import pytest

import treedom
from treedom import (
    FamilyFSpec,
    InternalError,
    Tree,
    certificate_from_text,
    comb,
    double_star,
    family_f,
    parse_edge_list,
    parse_graph6,
    path,
    q_tree,
    random_tree,
    serialize_edge_list,
    serialize_graph6,
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

    @pytest.mark.parametrize(
        "g6,want",
        [
            ("@", "n: 1\nbeta: 1\ngamma_t: undefined\ntcoi: undefined\n"
                  "beta_witness: 0\ngamma_t_witness: undefined\ntcoi_witness: undefined\n"),
            ("A_", "n: 2\nbeta: 1\ngamma_t: 2\ntcoi: undefined\n"
                   "beta_witness: 0\ngamma_t_witness: 0 1\ntcoi_witness: undefined\n"),
            ("Ch", "n: 4\nbeta: 2\ngamma_t: 2\ntcoi: 2\n"
                   "beta_witness: 0 2\ngamma_t_witness: 1 2\ntcoi_witness: 1 2\n"),
        ],
        ids=["n1", "n2", "path4"],
    )
    def test_text_pinned(self, tmp_path, capsys, g6, want):
        p = tmp_path / "t.g6"
        p.write_text(g6 + "\n")
        assert main(["compute", str(p)]) == 0
        assert capsys.readouterr().out == want

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

    def test_upper_on_stated_counterexample(self, tmp_path, capsys):
        # the 8-path with a pendant on a middle vertex meets the paper's
        # stated condition but not the exact one
        t = Tree(9, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 8),
                     (5, 6), (6, 7)))
        f = write_tree(tmp_path, t)
        assert main(["check", "structural", f]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["check", "upper", f]) == 1
        assert capsys.readouterr().out == "false\n"

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

    @pytest.mark.parametrize(
        "argv,build",
        [
            (["path", "--n", "7"], lambda: path(7)),
            (["star", "--n", "6"], lambda: star(6)),
            (["doublestar", "--a", "2", "--b", "3"], lambda: double_star(2, 3)),
            (["comb", "--k", "4"], lambda: comb(4)),
            (["qr", "--r", "5"], lambda: q_tree(5)),
            (["familyf", "--b", "2", "--d", "3"], lambda: family_f(
                FamilyFSpec(path(5), {0, 1}, {2, 3, 4}))),
            (["random", "--n", "9", "--seed", "3"], lambda: random_tree(9, 3)),
        ],
        ids=["path", "star", "doublestar", "comb", "qr", "familyf", "random"],
    )
    @pytest.mark.parametrize("to", ["edgelist", "graph6"])
    def test_families_match_builders(self, argv, build, to, capsys):
        # each family's output is its library builder's serialization
        tree = build()
        want = serialize_edge_list(tree) if to == "edgelist" else serialize_graph6(tree) + "\n"
        assert main(["generate", *argv, "--to", to]) == 0
        assert capsys.readouterr().out == want

    def test_familyf_on_a_base_file(self, tmp_path, capsys):
        # the first --b base vertices host star gadgets, the rest
        # subdivided-star gadgets
        base = Tree(4, ((0, 1), (1, 2), (1, 3)))
        f = write_tree(tmp_path, base)
        assert main(["generate", "familyf", "--base", f, "--b", "3"]) == 0
        want = family_f(FamilyFSpec(base, {0, 1, 2}, {3}))
        assert capsys.readouterr().out == serialize_edge_list(want)

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

    def test_census_bad_out_fails_before_the_run(self, tmp_path, capsys,
                                                 monkeypatch):
        # the output path is opened first, so a bad one exits 2 at once
        # instead of after the whole census
        def fail(max_n):
            raise AssertionError("the census ran")

        monkeypatch.setattr(treedom.census, "run_census", fail)
        rc = main(["census", "--max-n", "12", "--out", str(tmp_path / "no" / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_census_failed_run_keeps_existing_out(self, tmp_path, capsys,
                                                  monkeypatch):
        # the output is written only after the run succeeds
        def fail(max_n):
            raise InternalError("planted")

        out = tmp_path / "census.csv"
        out.write_text("old rows\n")
        monkeypatch.setattr(treedom.census, "run_census", fail)
        rc = main(["census", "--max-n", "7", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("internal error:")
        assert out.read_text() == "old rows\n"

    @pytest.mark.parametrize("args", [
        ["verify", "--max-n", "-4"],
        ["verify", "--max-n", "2"],
        ["census", "--max-n", "0"],
    ])
    def test_max_n_below_three(self, args):
        # run as a process: below 3 there is no tree to check, so a clean
        # report would claim something about nothing
        src = os.path.dirname(os.path.dirname(treedom.__file__))
        r = subprocess.run(
            [sys.executable, "-m", "treedom.cli", *args], capture_output=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert r.returncode == 2
        assert r.stderr.startswith(b"error:")
        assert b"hold" not in r.stdout and b"canon" not in r.stdout

    def test_package_runs_as_module(self):
        # python -m treedom, with only src on the import path
        src = os.path.dirname(os.path.dirname(treedom.__file__))
        r = subprocess.run(
            [sys.executable, "-m", "treedom", "--help"], capture_output=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert r.returncode == 0
        assert b"verify" in r.stdout and r.stderr == b""

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
