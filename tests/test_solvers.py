import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import treedom
from treedom import (
    FamilyFSpec,
    NotATcoiSetError,
    TooLargeError,
    Tree,
    UndefinedInvariantError,
    all_tcoi_sets,
    brute_force,
    comb,
    family_f,
    in_some_optimal_set,
    independence_number,
    invariant_report,
    is_independent_set,
    is_minimal_tcoi_set,
    is_tcoi_set,
    is_total_dominating_set,
    optimal_sets,
    invariant_value,
    path,
    random_tree,
    serialize_edge_list,
    star,
    tcoi_number,
    total_domination_number,
)
from treedom.cli import main
from treedom.solvers import WITNESS_MAX_N


def t11():
    return family_f(FamilyFSpec(path(2), frozenset({0}), frozenset({1})))


class TestIndependenceNumber:
    def test_p4(self):
        assert independence_number(path(4))[0] == 2

    def test_star5(self):
        beta, w = independence_number(star(5))
        assert beta == 4 and w == {1, 2, 3, 4}

    def test_family_f_value(self):
        assert independence_number(t11())[0] == 10

    def test_witness_lexicographically_smallest(self):
        # P_4 has beta-sets {0,2}, {0,3}, {1,3}; sorted-list order picks {0,2}
        assert independence_number(path(4))[1] == {0, 2}


class TestTotalDomination:
    def test_p4(self):
        assert total_domination_number(path(4))[0] == 2

    def test_star5(self):
        assert total_domination_number(star(5))[0] == 2

    def test_p6(self):
        assert total_domination_number(path(6))[0] == 4

    def test_single_vertex_undefined(self):
        with pytest.raises(UndefinedInvariantError):
            total_domination_number(Tree(1))

    def test_p2(self):
        assert total_domination_number(path(2))[0] == 2


class TestTcoiNumber:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_stars(self, n):
        assert tcoi_number(star(n))[0] == 2

    def test_paths(self):
        assert tcoi_number(path(4))[0] == 2
        assert tcoi_number(path(5))[0] == 3
        assert tcoi_number(path(6))[0] == 4

    def test_family_f_value(self):
        assert tcoi_number(t11())[0] == 6

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_undefined(self, n):
        with pytest.raises(UndefinedInvariantError):
            tcoi_number(path(n))

    def test_witness_is_tcoi_set(self, corpus):
        for t in corpus(3, 9):
            val, w = tcoi_number(t)
            assert is_tcoi_set(t, w) and len(w) == val


class TestBruteForce:
    def test_p4_beta(self):
        assert brute_force(path(4), "beta") == (2, frozenset({0, 2}))

    def test_p6_tcoi(self):
        assert brute_force(path(6), "tcoi")[0] == 4

    def test_p2_tcoi_undefined(self):
        with pytest.raises(UndefinedInvariantError):
            brute_force(path(2), "tcoi")

    def test_cap(self):
        with pytest.raises(TooLargeError):
            brute_force(path(25), "beta")

    def test_matches_dp_with_matching_witnesses(self, corpus):
        # values must agree everywhere; both sides use the same tie-break,
        # so the witnesses agree as well
        for t in corpus(3, 10):
            for which, solver in (
                ("beta", independence_number),
                ("gamma_t", total_domination_number),
                ("tcoi", tcoi_number),
            ):
                assert solver(t) == brute_force(t, which)


class TestPredicates:
    def test_is_tcoi_examples(self):
        assert is_tcoi_set(path(4), {1, 2})
        assert not is_tcoi_set(path(4), {0, 1, 2, 3})  # empty complement
        assert not is_tcoi_set(path(6), {1, 2, 4})  # vertex 4 undominated

    def test_independent_and_dominating(self):
        assert is_independent_set(path(5), {0, 2, 4})
        assert not is_independent_set(path(5), {0, 1})
        assert is_total_dominating_set(path(4), {1, 2})
        assert not is_total_dominating_set(path(4), {1})

    def test_complement_independence_is_vertex_cover(self, corpus):
        import itertools

        for t in corpus(2, 7):
            for r in range(t.n + 1):
                for s in itertools.combinations(range(t.n), r):
                    out = set(range(t.n)) - set(s)
                    covers = all(u in s or v in s for u, v in t.edges)
                    assert is_independent_set(t, out) == covers

    def test_minimal_examples(self):
        assert is_minimal_tcoi_set(path(4), {1, 2})
        assert is_minimal_tcoi_set(path(6), {1, 2, 3, 4})
        # comb spine plus one leaf: the extra leaf fails both conditions
        assert not is_minimal_tcoi_set(comb(3), {0, 1, 2, 3})

    def test_minimal_requires_tcoi(self):
        with pytest.raises(NotATcoiSetError):
            is_minimal_tcoi_set(path(4), {0})


class TestInSomeOptimalSet:
    def test_p4(self):
        p4 = path(4)
        assert in_some_optimal_set(p4, 1, "tcoi")
        assert not in_some_optimal_set(p4, 0, "tcoi")
        assert in_some_optimal_set(p4, 0, "beta")

    def test_soundness_against_enumeration(self, corpus):
        for t in corpus(3, 12):
            for which in ("beta", "tcoi"):
                opt = optimal_sets(t, which)
                for v in range(t.n):
                    expected = any(v in w for w in opt)
                    assert in_some_optimal_set(t, v, which) == expected


class TestEnumerationHelpers:
    def test_optimal_sets_p4(self):
        assert optimal_sets(path(4), "beta") == [
            frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3}),
        ]
        assert optimal_sets(path(4), "tcoi") == [frozenset({1, 2})]

    def test_all_tcoi_sets_are_valid_and_complete(self, corpus):
        import itertools

        for t in corpus(3, 7):
            got = set(all_tcoi_sets(t))
            expect = set()
            for r in range(t.n + 1):
                for s in itertools.combinations(range(t.n), r):
                    if is_tcoi_set(t, s):
                        expect.add(frozenset(s))
            assert got == expect


class TestInvariantReport:
    def test_json_shape(self):
        d = invariant_report(path(4)).to_json_dict()
        assert d == {
            "n": 4,
            "beta": 2,
            "gamma_t": 2,
            "tcoi": 2,
            "beta_witness": [0, 2],
            "gamma_t_witness": [1, 2],
            "tcoi_witness": [1, 2],
        }

    def test_p2_tcoi_null(self):
        d = invariant_report(path(2)).to_json_dict()
        assert d["tcoi"] is None and d["tcoi_witness"] is None
        assert d["gamma_t"] == 2

    def test_k1(self):
        d = invariant_report(Tree(1)).to_json_dict()
        assert d["beta"] == 1 and d["gamma_t"] is None


def relabeled_random_tree(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return random_tree(n, seed).relabeled(dict(enumerate(perm)))


class TestOnePass:
    @pytest.mark.parametrize(
        "solver", [independence_number, total_domination_number, tcoi_number]
    )
    def test_witness(self, dp_calls, solver):
        solver(random_tree(30, 1))
        assert len(dp_calls) == 1

    @pytest.mark.parametrize("which", ["beta", "tcoi"])
    def test_membership(self, dp_calls, which):
        in_some_optimal_set(random_tree(30, 1), 5, which)
        assert len(dp_calls) == 1


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_dp_frees_folded_states(self):
        # each vertex's n-bit state is dropped once folded into its parent;
        # keeping every state to the end would peak near 18 MB
        t = path(5000)
        assert traced_peak(tcoi_number, t) < 8 << 20

    def test_oracle_keeps_only_best_size_hits(self):
        # star(20) has 2^19 + 1 independent sets and one maximum one;
        # keeping every valid mask would peak near 9 MB
        t = star(20)
        assert traced_peak(brute_force, t, "beta") < 4 << 20


class TestLazyNumpy:
    def test_dp_route_does_not_import_numpy(self):
        # numpy is most of the package's import time and only the subset
        # oracle needs it; a fresh interpreter shows what the import loads
        src = os.path.dirname(os.path.dirname(treedom.__file__))
        code = (
            "import sys, treedom\n"
            "treedom.invariant_report(treedom.path(10))\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "treedom.brute_force(treedom.path(5), 'beta')\n"
            "assert 'numpy' in sys.modules\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert r.returncode == 0, r.stderr.decode()


class TestBeyondCorpus:
    TREES = [relabeled_random_tree(15 + seed % 6, seed) for seed in range(20)]

    def test_witnesses_match_brute_force(self):
        for t in self.TREES:
            assert independence_number(t) == brute_force(t, "beta")
            assert total_domination_number(t) == brute_force(t, "gamma_t")
            assert tcoi_number(t) == brute_force(t, "tcoi")

    def test_membership_matches_enumeration(self):
        for t in self.TREES:
            if t.n > 16:
                continue
            for which in ("beta", "tcoi"):
                opt = optimal_sets(t, which)
                for v in range(t.n):
                    assert in_some_optimal_set(t, v, which) == any(v in w for w in opt)


class TestWitnessCap:
    def test_witness_refused_before_dp(self, dp_calls):
        with pytest.raises(TooLargeError, match=str(WITNESS_MAX_N)):
            tcoi_number(path(WITNESS_MAX_N + 1))
        assert dp_calls == []

    def test_value_uncapped(self):
        # tcoi(P_n) = floor(2n/3), checked against the oracle on short paths
        for n in range(3, 13):
            assert brute_force(path(n), "tcoi")[0] == 2 * n // 3
        n = WITNESS_MAX_N + 1
        assert invariant_value(path(n), "tcoi") == 2 * n // 3

    def test_compute_exits_2(self, tmp_path, capsys):
        p = tmp_path / "long.txt"
        p.write_text(serialize_edge_list(path(WITNESS_MAX_N + 1)))
        assert main(["compute", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:")
