import pytest

from treedom import (
    BadParameterError,
    BadSpecError,
    FamilyFSpec,
    OperationStep,
    PreconditionViolatedError,
    Tree,
    apply_operation,
    attains_lower_bound,
    brute_force,
    canonical_code,
    comb,
    diameter,
    double_star,
    family_f,
    is_isomorphic,
    path,
    prufer_decode,
    q_tree,
    random_tree,
    spider,
    star,
    structure,
)


class TestBasicBuilders:
    def test_path_star(self):
        assert path(1).n == 1
        assert star(5).n == 5 and structure(star(5)).diameter == 2
        assert len(structure(star(5)).leaves) == 4

    def test_double_star(self):
        assert is_isomorphic(double_star(1, 1), path(4))
        ds = double_star(2, 3)
        rep = structure(ds)
        assert ds.n == 7 and rep.supports == {0, 1} and len(rep.leaves) == 5

    def test_comb(self):
        c = comb(3)
        rep = structure(c)
        assert c.n == 6
        assert rep.supports == {0, 1, 2} and rep.leaves == {3, 4, 5}

    def test_spider(self):
        sp = spider((1, 1, 2))
        assert sp.n == 5 and sp.degree(0) == 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: path(0),
            lambda: star(0),
            lambda: double_star(0, 1),
            lambda: comb(0),
            lambda: spider((0,)),
        ],
    )
    def test_bad_parameters(self, build):
        with pytest.raises(BadParameterError):
            build()


class TestQTree:
    def test_orders(self):
        assert q_tree(2).n == 7
        assert q_tree(5).n == 13

    def test_r1_rejected(self):
        with pytest.raises(BadParameterError):
            q_tree(1)

    def test_leaf_profile(self):
        for r in range(2, 7):
            t = q_tree(r)
            rep = structure(t)
            assert t.n == 2 * r + 3
            # the r+1 pendants plus the bare spine end
            assert len(rep.leaves) == r + 2 and 0 in rep.leaves

    def test_matches_drawn_q5(self):
        # transcription of the drawn Q_5: spine v s s1..s5, one pendant on
        # every spine vertex except v
        names = {"v": 0, "s": 1, "s1": 2, "s2": 3, "s3": 4, "s4": 5, "s5": 6,
                 "ps": 7, "p1": 8, "p2": 9, "p3": 10, "p4": 11, "p5": 12}
        e = [("v", "s"), ("s", "s1"), ("s1", "s2"), ("s2", "s3"),
             ("s3", "s4"), ("s4", "s5"), ("s", "ps"), ("s1", "p1"),
             ("s2", "p2"), ("s3", "p3"), ("s4", "p4"), ("s5", "p5")]
        drawn = Tree(13, tuple((names[a], names[b]) for a, b in e))
        assert is_isomorphic(drawn, q_tree(5))

    def test_stable_codes(self):
        for r in range(2, 7):
            assert canonical_code(q_tree(r)) == canonical_code(q_tree(r))


class TestFamilyF:
    def test_base_p2_shape(self):
        t = family_f(FamilyFSpec(path(2), frozenset({0}), frozenset({1})))
        assert t.n == 15
        assert len(structure(t).leaves) == 8

    def test_matches_drawn_t23(self):
        # transcription of the drawn T_{2,3} over the path u1 u2 v1 v2 v3
        labels = {}

        def lb(name):
            return labels.setdefault(name, len(labels))

        e = []
        base = ["u1", "u2", "v1", "v2", "v3"]
        for a, b in zip(base, base[1:]):
            e.append((lb(a), lb(b)))
        for i, w in enumerate(base, start=1):
            e.append((lb(w), lb(f"pl{i}")))   # first pendant
            e.append((lb(w), lb(f"pr{i}")))   # second pendant
        for i, u in enumerate(["u1", "u2"], start=1):
            e += [(lb(u), lb(f"a{i}")), (lb(f"a{i}"), lb(f"c{i}")),
                  (lb(f"c{i}"), lb(f"x{i}")), (lb(f"c{i}"), lb(f"y{i}"))]
        for i, v in enumerate(["v1", "v2", "v3"], start=1):
            e += [(lb(v), lb(f"b{i}")), (lb(f"b{i}"), lb(f"m{i}")),
                  (lb(f"m{i}"), lb(f"d{i}")), (lb(f"d{i}"), lb(f"w{i}")),
                  (lb(f"d{i}"), lb(f"z{i}"))]
        drawn = Tree(len(labels), tuple(e))
        built = family_f(
            FamilyFSpec(path(5), frozenset({0, 1}), frozenset({2, 3, 4}))
        )
        assert drawn.n == built.n == 38
        assert is_isomorphic(drawn, built)

    def test_bad_specs(self):
        with pytest.raises(BadSpecError):
            FamilyFSpec(path(3), frozenset({0, 1}), frozenset({1, 2}))
        with pytest.raises(BadSpecError):
            FamilyFSpec(path(3), frozenset({0}), frozenset({2}))
        with pytest.raises(BadSpecError):
            FamilyFSpec(path(3), frozenset({0, 1, 2}), frozenset())


class TestApplyOperation:
    def test_o1_inner_p4(self):
        t = apply_operation(path(4), OperationStep("O1", 1))
        assert is_isomorphic(t, spider((1, 1, 2)))
        assert attains_lower_bound(t)

    def test_o1_leaf_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            apply_operation(path(4), OperationStep("O1", 0))

    def test_o2_builds_drawn_tree(self):
        # pendant 2-path at an inner vertex gives the 6-vertex spider with
        # legs 1,2,2
        t = apply_operation(path(4), OperationStep("O2", 1))
        drawn = Tree(6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))
        assert is_isomorphic(t, drawn)

    def test_o3_o4_shapes(self):
        t3 = apply_operation(path(4), OperationStep("O3", 1))
        assert t3.n == 8 and t3.degree(1) == 3
        # O3 hangs a 4-path: new vertex 4 has degree 2
        assert t3.degree(4) == 2 and t3.degree(7) == 1
        t4 = apply_operation(path(4), OperationStep("O4", 0))
        # O4 joins through an inner vertex of the added path
        assert t4.n == 8 and t4.degree(5) == 3 and t4.degree(4) == 1

    def test_label_contract(self):
        step = OperationStep("O1", 1, (9,))
        with pytest.raises(BadParameterError):
            apply_operation(path(4), step)
        ok = apply_operation(path(4), OperationStep("O1", 1, (4,)))
        assert ok.n == 5

    def test_new_labels_preserve_old_edges(self):
        t = apply_operation(path(4), OperationStep("O2", 2))
        assert t.edges[:3] == path(4).edges
        assert (2, 4) in t.edges and (4, 5) in t.edges

    def test_sequences_stay_in_lower_family(self):
        import random

        rng = random.Random(11)
        for _ in range(25):
            t = path(4)
            for _ in range(3):
                choices = [
                    (k, v)
                    for k in ("O1", "O2", "O3", "O4")
                    for v in range(t.n)
                ]
                rng.shuffle(choices)
                for k, v in choices:
                    try:
                        t = apply_operation(t, OperationStep(k, v))
                        break
                    except PreconditionViolatedError:
                        continue
            assert attains_lower_bound(t)


class TestFamilyFIdentities:
    def test_remark_identities_small(self):
        # spot check one assignment per base order; the acceptance suite
        # sweeps every assignment
        for base in [path(2), path(3), star(4), path(5)]:
            n = base.n
            for b in range(1, n):
                d = n - b
                if not (1 <= b <= 3 and 1 <= d <= 3):
                    continue
                spec = FamilyFSpec(
                    base, frozenset(range(b)), frozenset(range(b, n))
                )
                t = family_f(spec)
                rep = structure(t)
                assert t.n == 3 * n + 4 * b + 5 * d
                assert len(rep.leaves) == 2 * n + 2 * b + 2 * d
                break


class TestRandomTrees:
    def test_deterministic(self):
        assert random_tree(8, 42).edges == random_tree(8, 42).edges

    def test_single_vertex(self):
        assert random_tree(1, 0).n == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_below_three_is_the_path(self, n):
        # the empty Prufer sequence decodes to the only tree of that order
        for seed in range(3):
            assert random_tree(n, seed) == path(n)

    def test_prufer_roundtrip_known(self):
        t = prufer_decode([3, 3, 3, 4], 6)
        assert t.degree(3) == 4 and t.degree(4) == 2

    def test_bound_sandwich_on_random_trees(self):
        for seed in range(20):
            t = random_tree(8, seed)
            if diameter(t) < 3:
                continue
            beta = brute_force(t, "beta")[0]
            tcoi = brute_force(t, "tcoi")[0]
            leaves = len(structure(t).leaves)
            assert t.n - beta <= tcoi <= t.n - leaves
