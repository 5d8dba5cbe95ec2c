import ast
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
    enumerate_trees,
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
from treedom import solvers
from treedom.cli import main
from treedom.solvers import WITNESS_MAX_N
from treedom.trees import _bfs


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

    def test_unknown_invariant(self):
        t = path(5)
        for call in (
            lambda: invariant_value(t, "bogus"),
            lambda: optimal_sets(t, "bogus"),
            lambda: brute_force(t, "bogus"),
            lambda: in_some_optimal_set(t, 0, "bogus"),
        ):
            with pytest.raises(ValueError, match="unknown invariant 'bogus'"):
                call()

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

    def test_minimal_matches_dominator_count(self, corpus):
        # the mask test against a count of each vertex's in-set neighbors,
        # on every subset: same verdict on tcoi sets, same error elsewhere
        import itertools

        def reference(t, s):
            if not is_tcoi_set(t, s):
                return None
            dominators = [sum(w in s for w in t.adj[v]) for v in range(t.n)]
            return all(
                any(dominators[w] == 1 or w not in s for w in t.adj[v]) for v in s
            )

        for t in corpus(3, 8):
            for r in range(t.n + 1):
                for s in itertools.combinations(range(t.n), r):
                    want = reference(t, set(s))
                    if want is None:
                        with pytest.raises(NotATcoiSetError):
                            is_minimal_tcoi_set(t, s)
                    else:
                        assert is_minimal_tcoi_set(t, s) == want


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
        # keeping every valid mask as an int would peak near 22 MB
        t = star(20)
        assert traced_peak(brute_force, t, "beta") < 4 << 20


class TestLazyNumpy:
    def test_dp_route_does_not_import_numpy(self):
        # only the tests' reference uses numpy; a fresh interpreter shows
        # that neither the DPs, nor the subset oracle, nor the census load it
        src = os.path.dirname(os.path.dirname(treedom.__file__))
        code = (
            "import sys, treedom\n"
            "treedom.invariant_report(treedom.path(10))\n"
            "treedom.brute_force(treedom.path(5), 'beta')\n"
            "treedom.run_census(8)\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert r.returncode == 0, r.stderr.decode()

    def test_package_imports_only_stdlib(self):
        # the package has no runtime dependency: every import names a
        # standard-library module or the package itself
        pkg = os.path.dirname(treedom.__file__)
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as f:
                tree = ast.parse(f.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    mods = [node.module]
                else:
                    continue
                for mod in mods:
                    top = mod.split(".")[0]
                    assert top in sys.stdlib_module_names or top == "treedom", (name, mod)


def reference_valid_masks(tree, which):
    """Every mask (vertex v at bit v) that satisfies the defining predicate,
    by shifts and masks on all 2^n uint64 masks at once."""
    import numpy as np

    arr = np.arange(1 << tree.n, dtype=np.uint64)
    ok = np.ones(arr.shape, dtype=bool)
    if which == "beta":
        for u, v in tree.edges:
            ok &= ((arr >> np.uint64(u)) & (arr >> np.uint64(v)) & np.uint64(1)) == 0
        return arr[ok]
    for v in range(tree.n):
        nb = sum(1 << w for w in tree.adj[v])
        ok &= (arr & np.uint64(nb)) != 0
    if which == "tcoi":
        for u, v in tree.edges:
            ok &= (((arr >> np.uint64(u)) | (arr >> np.uint64(v))) & np.uint64(1)) != 0
        ok &= arr != np.uint64((1 << tree.n) - 1)
    return arr[ok]


class TestBitColumns:
    # star(17), path(17) and the order-18 trees span 2 and 4 chunks, so
    # their bits 16 and 17 are constant over each chunk
    TREES = [t for n in range(1, 10) for t in enumerate_trees(n)] + [
        star(17), path(17), relabeled_random_tree(18, 0), relabeled_random_tree(18, 1),
    ]

    @pytest.mark.parametrize("which", ["beta", "gamma_t", "tcoi"])
    def test_valid_chunks_match_shift_and_mask(self, which):
        least = {"beta": 1, "gamma_t": 2, "tcoi": 3}[which]
        for t in self.TREES:
            if t.n < least:
                continue
            masks = solvers._valid_masks(t, which, solvers.BRUTE_FORCE_CAP)
            assert masks == reference_valid_masks(t, which).tolist()

    def test_columns_sized_by_largest_order(self):
        # a chunk holds min(2^n, 2^16) masks, and only bits below 16 vary
        # within one
        for k in range(11):
            cols, sizes = solvers._columns(k)
            assert cols == [sum(1 << m for m in range(1 << k) if m >> v & 1) for v in range(k)]
            assert sizes == [
                sum(1 << m for m in range(1 << k) if m.bit_count() == s) for s in range(k + 1)
            ]
        chunks = list(solvers._valid_chunks(star(18), "gamma_t", solvers.BRUTE_FORCE_CAP))
        assert [lo for lo, _ in chunks] == [0, 1 << 16, 2 << 16, 3 << 16]
        assert all(ok < 1 << (1 << 16) for _, ok in chunks)

    def test_ones(self):
        dense = (1 << (1 << 16)) - 1
        assert solvers._ones(0) == []
        assert solvers._ones(1) == [0]
        assert solvers._ones(1 << 65535 | 1 << 300 | 4) == [2, 300, 65535]
        assert solvers._ones(dense) == list(range(1 << 16))
        assert solvers._ones(dense ^ 1 << 7) == [m for m in range(1 << 16) if m != 7]

    @pytest.mark.parametrize("which", ["beta", "gamma_t", "tcoi"])
    def test_optimal_masks_across_chunks(self, which):
        pick = max if which == "beta" else min
        for t in self.TREES[-4:] + [path(18)]:
            ref = reference_valid_masks(t, which).tolist()
            best = pick(m.bit_count() for m in ref)
            got = solvers._optimal_masks(t, which, solvers.BRUTE_FORCE_CAP)
            assert got == [m for m in ref if m.bit_count() == best]

    def test_optimal_masks_drop_and_tie(self):
        # star(17)'s leaf 16 is bit 16: the first chunk's best independent
        # set has 15 members, and the second chunk's, with 16, drops it;
        # path(18)'s maximum independent sets tie across the chunks that
        # hold bit 16 or bit 17
        cap = solvers.BRUTE_FORCE_CAP
        assert [m >> 16 for m in solvers._optimal_masks(star(17), "beta", cap)] == [1]
        assert max(m.bit_count() for m in solvers._valid_masks(star(17), "beta", cap)
                   if m < 1 << 16) == 15
        assert {m >> 16 for m in solvers._optimal_masks(path(18), "beta", cap)} == {1, 2}


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


# The clamped folds the kernels replaced, kept as references: every sum is
# clamped to inf with min() and each comparison is a min() or max() call.


def ref_beta_opt(tree, weight):
    dp_in = list(weight)
    dp_out = [0] * tree.n
    for v in tree.order[:0:-1]:
        p = tree.parent[v]
        dp_in[p] += dp_out[v]
        dp_out[p] += max(dp_in[v], dp_out[v])
        dp_in[v] = dp_out[v] = None
    return max(dp_in[0], dp_out[0])


def ref_gamma_t_opt(tree, weight):
    inf = sum(weight) + 1
    st = [(inf, w, inf, 0) for w in weight]
    for v in tree.order[:0:-1]:
        ca, cb, cc, cd = st[v]
        st[v] = None
        p = tree.parent[v]
        a, b, c, d = st[p]
        in_any = min(ca, cb, cc, cd)
        in_dset = min(ca, cb)
        st[p] = (
            min(a + in_any, b + in_dset, inf),
            min(b + min(cc, cd), inf),
            min(c + min(ca, cc), d + ca, inf),
            min(d + cc, inf),
        )
    ans = min(st[0][0], st[0][2])
    return None if ans >= inf else ans


def ref_tcoi_opt(tree, weight):
    inf = sum(weight) + 1
    st = [(inf, inf, w, inf, 0) for w in weight]
    for v in tree.order[:0:-1]:
        ca0, ca1, cb0, cb1, co = st[v]
        st[v] = None
        p = tree.parent[v]
        a0, a1, b0, b1, o = st[p]
        in_t0 = min(ca0, cb0)
        in_t1 = min(ca1, cb1)
        any_t1 = min(in_t1, co)
        any_t0 = in_t0
        st[p] = (
            min(a0 + any_t0, b0 + in_t0, inf),
            min(a1 + min(any_t0, any_t1), a0 + any_t1, b1 + min(in_t0, in_t1),
                b0 + in_t1, inf),
            inf,
            min(b1 + co, b0 + co, inf),
            min(o + min(ca0, ca1), inf),
        )
    a0, a1, b0, b1, o = st[0]
    ans = min(a1, o if tree.n >= 2 else inf)
    return None if ans >= inf else ans


REFERENCE_DP = {"beta": ref_beta_opt, "gamma_t": ref_gamma_t_opt, "tcoi": ref_tcoi_opt}


def kernel_weights(n, rng, members):
    """Unit weights, membership weights (2, with 1 or 3 at each vertex in
    members), seeded random non-negative weights (zeros included) and both
    witness weightings."""
    yield [1] * n
    for v in members:
        for c in (1, 3):
            w = [2] * n
            w[v] = c
            yield w
    yield [rng.randrange(10) for _ in range(n)]
    yield [rng.choice((0, 0, 1, 7, 1 << 40)) for _ in range(n)]
    for sign in (1, -1):
        yield [(1 << n) + sign * (1 << (n - 1 - v)) for v in range(n)]


def folded_optimum(tree, which, weight):
    """The optimum as the sum of the offsets that the incremental
    membership's per-vertex fold gives each vertex, bottom-up."""
    fold = solvers._FOLD[which]
    state = [None] * tree.n
    for v in reversed(tree.order):
        kids = [c for c in tree.adj[v] if c != tree.parent[v]]
        state[v] = fold(weight[v], kids, state)
    return sum(offset for _, offset in state)


class TestKernelsMatchReference:
    def check(self, tree, rng, members):
        # the kernels fold along the tree's own order and along a BFS order
        # rooted at its last vertex; the optimum does not depend on the root.
        # The incremental membership's per-vertex folds must agree with them
        other = _bfs(tree.adj, tree.n - 1)
        for weight in kernel_weights(tree.n, rng, members):
            for which, ref in REFERENCE_DP.items():
                expected = ref(tree, weight)
                for order, parent in ((tree.order, tree.parent), other[:2]):
                    assert solvers._DP[which](order, parent, weight) == expected, (
                        tree, which, weight, order[0])
                if which == "beta" or (which == "tcoi" and tree.n >= 3):
                    assert folded_optimum(tree, which, weight) == expected, (
                        tree, which, weight)

    def test_small_trees(self, corpus):
        rng = random.Random(0)
        for t in corpus(1, 10):
            self.check(t, rng, range(t.n))

    @pytest.mark.parametrize("n", [50, 200, 1000])
    def test_random_trees(self, n):
        rng = random.Random(n)
        for seed in range(4):
            t = relabeled_random_tree(n, seed)
            self.check(t, rng, rng.sample(range(n), 3))


class TestTcoiPremises:
    """What the three-state tcoi DP rests on."""

    def test_all_but_one_leaf_is_a_tcoi_set(self, corpus):
        # V - {h} weighs no more than V, so allowing D = V never lowers the
        # optimum, and the non-empty complement needs no state of its own
        for t in corpus(3, 10):
            everything = set(range(t.n))
            for h in range(t.n):
                if len(t.adj[h]) == 1:
                    assert is_tcoi_set(t, everything - {h}), (t, h)

    @pytest.mark.parametrize("n", [1, 2])
    def test_undefined_below_three_vertices(self, n):
        t = path(n)
        for weight in ([1] * n, [0] * n, [2, 3][:n]):
            assert solvers._DP["tcoi"](t.order, t.parent, weight) is None


def largest_tcoi_complement(tree):
    """Size of the largest non-empty independent set I for which T - I has
    no isolated vertex, so that tcoi = n - this size (tree.n >= 3).

    Its own DP along an explicit-stack DFS from vertex 0, independent of
    tree.order and the solver's state layout.  Per vertex, over its
    subtree: i = vertex in I (its children are out of I, and each needs a
    child of its own out of I); c = out of I with a child out of I;
    u = out of I with every child in I, so its parent must be out of I.
    """
    neg = float("-inf")
    pre, parent, stack = [], [-1] * tree.n, [0]
    while stack:
        v = stack.pop()
        pre.append(v)
        for w in tree.adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    i, c, u = [0] * tree.n, [0] * tree.n, [0] * tree.n
    for v in reversed(pre):
        kids = [w for w in tree.adj[v] if w != parent[v]]
        i[v] = 1 + sum(c[w] for w in kids)
        u[v] = sum(i[w] for w in kids)
        best = [max(i[w], c[w], u[w]) for w in kids]
        loss = [b - max(c[w], u[w]) for b, w in zip(best, kids)]
        c[v] = sum(best) - min(loss) if kids else neg
    return max(i[0], c[0])


def caterpillar(n):
    """Spine vertices carrying 0, 1, 2, 3, 0, ... pendant leaves, cut at n
    vertices."""
    edges, spine, k = [], 0, 0
    nxt = 1
    while nxt < n:
        for _ in range(k % 4):
            if nxt < n:
                edges.append((spine, nxt))
                nxt += 1
        if nxt < n:
            edges.append((spine, nxt))
            spine = nxt
            nxt += 1
        k += 1
    return Tree(n, tuple(edges))


def complete_binary_tree(n):
    return Tree(n, tuple(((v - 1) // 2, v) for v in range(1, n)))


class TestLargeTcoiOracle:
    def test_oracle_matches_brute_force(self, corpus):
        for t in corpus(3, 10):
            assert t.n - largest_tcoi_complement(t) == brute_force(t, "tcoi")[0], t

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize(
        "shape", [path, star, caterpillar, complete_binary_tree,
                  lambda n: relabeled_random_tree(n, 7)],
        ids=["path", "star", "caterpillar", "binary", "random"])
    def test_matches_dp(self, shape, n):
        t = shape(n)
        assert invariant_value(t, "tcoi") == n - largest_tcoi_complement(t)
