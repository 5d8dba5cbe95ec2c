import hashlib
import random
import re

import pytest

from treedom import (
    BadParameterError,
    Certificate,
    CertificateMismatchError,
    FamilyFSpec,
    InternalError,
    InvalidStepError,
    NotATreeError,
    OperationStep,
    PreconditionViolatedError,
    Tree,
    UndefinedInvariantError,
    apply_operation,
    attains_lower_bound,
    attains_upper_bound,
    canonical_code,
    certificate_from_text,
    certificate_to_text,
    comb,
    decompose_to_p4,
    diameter,
    distance_matrix,
    double_star,
    exhaustive_sequence_search,
    family_f,
    invariant_value,
    is_independent_set,
    path,
    q_tree,
    random_tree,
    serialize_edge_list,
    star,
    structural_upper_bound_check,
    structure,
    upper_family_check,
    verify_certificate,
)
from treedom import characterize, solvers, trees
from treedom.cli import main
from treedom.generators import OP_SIZES


def figure_tree(which):
    """The three drawn example trees used for the operation-necessity tests."""
    if which == 1:
        return Tree(12, ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6),
                         (6, 7), (2, 8), (8, 9), (9, 10), (10, 11)))
    if which == 2:
        return Tree(12, ((0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (1, 6),
                         (2, 7), (0, 8), (8, 9), (8, 10), (10, 11)))
    return Tree(6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))


def t11():
    return family_f(FamilyFSpec(path(2), frozenset({0}), frozenset({1})))


def stated_counterexample():
    """The 8-path with a pendant on a middle vertex: the smallest tree that
    meets the stated structural condition without attaining n - #leaves."""
    return Tree(9, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 8),
                    (5, 6), (6, 7)))


def grown_member(n, seed):
    """A lower-family member of order n: P_4 grown by seeded random valid
    O1-O4 steps."""
    rng = random.Random(seed)
    cur = path(4)
    while cur.n < n:
        kind = rng.choice([k for k, size in OP_SIZES.items() if size <= n - cur.n])
        for v in rng.sample(range(cur.n), cur.n):
            try:
                cur = apply_operation(cur, OperationStep(kind, v))
                break
            except PreconditionViolatedError:
                continue
    return cur


def reference_select_triple(tree, rep):
    """The triple by its definition, on the distance matrix: leaves h, h2 at
    maximum distance whose path passes through a semi-support v two steps
    from h, ties broken by smallest (h, h2, v)."""
    dm = distance_matrix(tree)
    best = None
    for v in sorted(rep.semi_supports):
        for h in sorted(rep.leaves):
            if dm[v][h] != 2:
                continue
            for h2 in sorted(rep.leaves):
                if h2 == h or dm[h][v] + dm[v][h2] != dm[h][h2]:
                    continue
                key = (-dm[h][h2], h, h2, v)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[1], best[2], best[3]


def alive_tree(adj, drop=()):
    """(tree, alive): what a _Peel state with adjacency sets adj has left,
    minus the vertices in drop, as a Tree renumbered in label order, and
    its vertices' labels in the state."""
    alive = [v for v, a in enumerate(adj) if a and v not in drop]
    label = {v: i for i, v in enumerate(alive)}
    return Tree(len(alive), [(label[u], label[w]) for u in alive
                             for w in adj[u] if u < w and w in label]), alive


def state_triple(state):
    """reference_select_triple on what a _Peel state has left, renumbered in
    label order so that ties break the same way, or None."""
    t, alive = alive_tree(state.adj)
    expected = reference_select_triple(t, structure(t))
    return expected and tuple(alive[i] for i in expected)


class TestFamilyMembership:
    def test_p4_in_both(self):
        assert attains_lower_bound(path(4))
        assert attains_upper_bound(path(4))

    def test_p5_p6(self):
        assert attains_upper_bound(path(5))
        assert attains_upper_bound(path(6))
        assert not attains_lower_bound(path(6))

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 2), (3, 4)])
    def test_double_stars_lower(self, a, b):
        assert attains_lower_bound(double_star(a, b))

    def test_gap_tree_misses_both(self):
        t = t11()
        assert not attains_lower_bound(t)
        assert not attains_upper_bound(t)

    @pytest.mark.parametrize("tree", [path(2), path(3), star(6)])
    def test_undefined_below_diameter_3(self, tree):
        for fn in (attains_lower_bound, attains_upper_bound,
                   structural_upper_bound_check, upper_family_check,
                   decompose_to_p4):
            with pytest.raises(UndefinedInvariantError):
                fn(tree)

    def test_diameter_test_reads_degrees(self, corpus):
        # membership reads diameter >= 3 off the degrees (two vertices of
        # degree >= 2); it must refuse exactly the trees of diameter < 3
        for t in corpus(1, 10):
            for fn in (attains_lower_bound, decompose_to_p4):
                try:
                    fn(t)
                    refused = False
                except UndefinedInvariantError:
                    refused = True
                assert refused == (diameter(t) < 3), t


class TestStructuralCheck:
    def test_p6(self):
        assert structural_upper_bound_check(path(6))

    def test_comb(self):
        from treedom import comb

        assert structural_upper_bound_check(comb(3))

    def test_gap_tree(self):
        assert not structural_upper_bound_check(t11())

    def test_stated_counterexample(self):
        # vertex 3 is neither leaf nor support, and both of its neighbors
        # 2 and 4 have another non-leaf neighbor
        t = stated_counterexample()
        assert structural_upper_bound_check(t)
        assert not upper_family_check(t)
        assert not attains_upper_bound(t)

    def test_forward_implication_holds(self, wide_trees):
        # members of the upper family always satisfy both structural
        # conditions (this is the proved direction; the converse fails,
        # see the acceptance suite)
        for t in wide_trees(4, 14):
            if attains_upper_bound(t):
                assert structural_upper_bound_check(t)

    def test_upper_family_pieces(self, wide_trees):
        # within the upper family: semi-supports sit next to isolated
        # supports when any exist, otherwise every vertex is a leaf or
        # support
        for t in wide_trees(4, 14):
            if not attains_upper_bound(t):
                continue
            rep = structure(t)
            if rep.isolated_supports:
                assert all(
                    any(w in rep.isolated_supports for w in t.adj[v])
                    for v in rep.semi_supports
                )
            else:
                assert rep.leaves | rep.supports == frozenset(range(t.n))


class TestUpperFamilyCheck:
    def test_p6(self):
        assert upper_family_check(path(6))

    def test_comb(self):
        from treedom import comb

        assert upper_family_check(comb(3))

    def test_gap_tree(self):
        assert not upper_family_check(t11())

    def test_agrees_with_dp_beyond_census(self):
        # random 30-vertex trees with a pendant leaf on about 90 % of their
        # vertices (about 57 vertices) land in and out of the family
        outcomes = set()
        for seed in range(300):
            base = random_tree(30, seed)
            rng = random.Random(seed)
            edges, n = list(base.edges), base.n
            for v in range(base.n):
                if rng.random() < 0.9:
                    edges.append((v, n))
                    n += 1
            t = Tree(n, tuple(edges))
            attains = attains_upper_bound(t)
            assert upper_family_check(t) == attains, t
            outcomes.add((attains, structural_upper_bound_check(t)))
        assert outcomes == {(True, True), (False, False), (False, True)}


class TestDecompose:
    def test_double_star_all_o1(self):
        ds = double_star(3, 3)
        cert = decompose_to_p4(ds)
        assert [s.op_kind for s in cert.steps] == ["O1"] * 4
        assert verify_certificate(cert, ds)
        assert not cert.used_fallback

    def test_smaller_double_star(self):
        cert = decompose_to_p4(double_star(2, 2))
        assert [s.op_kind for s in cert.steps] == ["O1"] * 2

    def test_figure_tree_1(self):
        t = figure_tree(1)
        cert = decompose_to_p4(t)
        kinds = tuple(s.op_kind for s in cert.steps)
        assert kinds in (("O3", "O3"), ("O4", "O3"))
        assert verify_certificate(cert, t)

    def test_p6_not_member(self):
        assert decompose_to_p4(path(6)) is None

    def test_p4_empty_certificate(self):
        cert = decompose_to_p4(path(4))
        assert cert.steps == ()
        assert verify_certificate(cert, path(4))

    def test_agreement_and_replay(self, wide_trees):
        for t in wide_trees(4, 12):
            cert = decompose_to_p4(t)
            assert (cert is not None) == attains_lower_bound(t)
            if cert is not None:
                assert verify_certificate(cert, t)
                assert not cert.used_fallback

    def test_monotone_growth(self, wide_trees):
        # every prefix of a valid certificate lands in the lower family
        for t in wide_trees(5, 11):
            cert = decompose_to_p4(t)
            if cert is None:
                continue
            cur = path(4)
            for step in cert.steps:
                cur = apply_operation(cur, step)
                assert attains_lower_bound(cur)

    def test_dead_end_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # there is no fallback search: a member on which no proof move
        # applies is a defect and must surface, also as CLI exit code 3
        t = figure_tree(1)
        monkeypatch.setattr(characterize, "_proof_move", lambda tree: None)
        with pytest.raises(InternalError):
            decompose_to_p4(t)
        f = tmp_path / "t.txt"
        f.write_text(serialize_edge_list(t))
        assert main(["certify", str(f)]) == 3
        assert capsys.readouterr().err.startswith("internal error:")

    @pytest.mark.parametrize("defect", ["precondition", "split", "base", "roles"])
    def test_defective_move_is_internal_error(self, defect, tmp_path, capsys,
                                              monkeypatch):
        # the peel is structural and the replay is the only check, so a move
        # whose forward step breaks its precondition, whose removal splits
        # the tree, that peels down to a tree other than P_4, or that lists
        # its piece in the wrong role order must still surface as
        # InternalError and CLI exit code 3
        real = characterize._proof_move

        def defective(state):
            kind, removed, attach = real(state)
            if defect == "roles":
                return kind, (removed[::-1] if kind == "O4" else removed), attach
            if defect == "split":
                inner = min(v for v, a in enumerate(state.adj) if len(a) > 1)
                return kind, (inner,), attach
            if defect == "base":
                # peeling the smallest leaf strips vertex 0 of its leaves and
                # then takes vertex 0 itself, leaving the star K_1,3
                leaf = min(state.leaves)
                (attach,) = state.adj[leaf]
                return "O1", (leaf,), attach
            # a leaf lies in no minimum tcoi set of a double star or of P_4
            leaf = min(state.leaves - set(removed))
            return kind, removed, leaf

        monkeypatch.setattr(characterize, "_proof_move", defective)
        t = double_star(3, 3)
        if defect == "roles":
            # peeled by one reverse O4; with its roles reversed the rebuilt
            # tree is still isomorphic, but not the input under the relabeling
            t = Tree(9, ((0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (5, 6),
                         (5, 8), (6, 7)))
        with pytest.raises(InternalError) as exc:
            decompose_to_p4(t)
        cause = exc.value.__cause__
        if defect == "split":
            assert isinstance(cause, NotATreeError)
        elif defect == "roles":
            assert isinstance(cause, CertificateMismatchError)
        elif defect == "base":
            assert "other than P_4" in str(exc.value)
        else:
            assert isinstance(cause, InvalidStepError) and cause.step_index == 0
            assert isinstance(cause.__cause__, PreconditionViolatedError)
        f = tmp_path / "t.txt"
        f.write_text(serialize_edge_list(t))
        assert main(["certify", str(f)]) == 3
        assert capsys.readouterr().err.startswith("internal error:")

    def test_replay_runs_no_full_fold(self, dp_calls):
        # the lower bound takes 2 DP calls; the peel of a double star
        # computes none, and the replay answers each step's precondition by
        # a walk up from its attachment vertex, with no fold of the tree
        cert = decompose_to_p4(double_star(3, 3))
        assert len(cert.steps) == 4
        assert sorted(dp_calls) == ["_beta_opt", "_tcoi_opt"]

    def test_grown_member_peels_without_full_folds(self, dp_calls):
        # the input's lower bound makes the only two DP calls: the peel
        # decides each one-link O2 check by membership walks, not folds
        for n in (160, 320):
            for seed in (0, 1):
                t = grown_member(n, seed)
                dp_calls.clear()
                decompose_to_p4(t)
                assert sorted(dp_calls) == ["_beta_opt", "_tcoi_opt"], (n, seed)

    def test_q_tree_certificate_replays_without_full_folds(self, dp_calls):
        # a q-tree's certificate costs the input's lower bound alone, and
        # verifying it none
        t = q_tree(600)
        cert = decompose_to_p4(t)
        assert len(cert.steps) == 600 and len(dp_calls) == 2
        dp_calls.clear()
        assert verify_certificate(cert, t)
        assert dp_calls == []

    def test_memberships_fold_beta_only_when_asked(self, monkeypatch):
        # the peel asks only tcoi, so it folds no beta state; a replay
        # folds them at its first O4 step, and one with no O4 step never
        calls = []
        real = solvers._FOLD["beta"]

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setitem(solvers._FOLD, "beta", counting)
        cert = decompose_to_p4(grown_member(320, 0))
        peel_and_replay = len(calls)
        calls.clear()
        characterize._replay(cert.steps)
        assert calls and len(calls) == peel_and_replay
        cert = decompose_to_p4(q_tree(600))
        assert all(s.op_kind != "O4" for s in cert.steps)
        calls.clear()
        characterize._replay(cert.steps)
        assert calls == []

    def test_stale_far_end_raises(self, monkeypatch):
        # a peel whose far ends go stale (here: remove skips refreshing
        # down) must raise InternalError, not re-key a candidate whose far
        # end was removed forever; the far end count turns a hang into a
        # failure
        class Frozen(list):
            def __setitem__(self, i, x):
                pass

        real_remove, real_far_end = characterize._Peel.remove, characterize._Peel.far_end
        calls = []

        def skipping(state, piece):
            if state.down is not None and not isinstance(state.down, Frozen):
                state.down = Frozen(state.down)
            real_remove(state, piece)

        def counting(state, s, v):
            calls.append((s, v))
            assert len(calls) < 1000, "far ends re-keyed without end"
            return real_far_end(state, s, v)

        monkeypatch.setattr(characterize._Peel, "remove", skipping)
        monkeypatch.setattr(characterize._Peel, "far_end", counting)
        with pytest.raises(InternalError, match="removed vertex"):
            decompose_to_p4(grown_member(40, 0))

    def test_two_canonical_codes_per_member(self, monkeypatch):
        # the replay is checked against the input's edges under the peel's
        # relabeling, so only the input is encoded
        calls = []
        real = characterize.canonical_code

        def counting(tree):
            calls.append(tree.n)
            return real(tree)

        monkeypatch.setattr(characterize, "canonical_code", counting)
        decompose_to_p4(double_star(3, 3))
        assert calls == [8]

    def test_families_coincide_iff_leaves_attain_beta(self, wide_trees):
        for t in wide_trees(4, 12):
            rep = structure(t)
            beta = invariant_value(t, "beta")
            assert is_independent_set(t, rep.leaves)
            lower = attains_lower_bound(t)
            upper = attains_upper_bound(t)
            if len(rep.leaves) == beta:
                assert lower == upper
            if lower and upper:
                assert len(rep.leaves) == beta

    def test_select_triple_matches_definition(self, wide_trees):
        checked = 0
        for t in wide_trees(4, 12):
            rep = structure(t)
            if rep.semi_supports:
                expected = reference_select_triple(t, rep)
                got = characterize._select_triple(characterize._Peel(t.order, t.parent))
                assert got == expected, t
                checked += 1
        assert checked == 795

    def test_heap_triple_matches_definition(self, wide_trees, monkeypatch):
        # at every peel that selects a triple, the lazy heap's choice must
        # be the definition's on the tree left at that point, rebuilt with
        # its vertices renumbered in order so that ties break the same way;
        # and at every one-link check (s1 = chain[1] holds only s and its
        # leaf h1), the membership walks must peel s1 and h1 (reverse O2)
        # exactly when the tree left minus them attains the lower bound
        real, real_chain = characterize._select_triple, characterize._q_chain_move
        checked, links = [], []

        def checking(state):
            got = real(state)
            assert got == state_triple(state), state.adj
            checked.append(state.n)
            return got

        def checking_chain(state, v, s, h):
            got = real_chain(state, v, s, h)
            s1 = min(state.adj[s] & state.supports)
            if len(state.adj[s1]) == 2:
                (h1,) = state.adj[s1] - {s}
                rest = alive_tree(state.adj, {s1, h1})[0]
                peeled = got is not None and got[1] == (s1, h1)
                assert peeled == attains_lower_bound(rest), state.adj
                links.append(peeled)
            return got

        monkeypatch.setattr(characterize, "_select_triple", checking)
        monkeypatch.setattr(characterize, "_q_chain_move", checking_chain)
        for t in wide_trees(4, 12):
            decompose_to_p4(t)
        small = len(checked), len(links)
        for n in (40, 80, 160, 320):
            for seed in (0, 1):
                decompose_to_p4(grown_member(n, seed))
        # one-link checks: 48 at n <= 12, 187 in all, 64 of them peeled
        assert (small, len(checked), len(links), sum(links)) == ((163, 48), 487, 187, 64)

    def test_heap_triple_after_any_pendant_removal(self):
        # the proof moves never strip a support of its last leaf, which
        # makes a semi-support of it, but remove takes any piece hanging by
        # one edge: cut seeded random edges of random trees and remove
        # either side, the one holding the input's root included
        rng = random.Random(14)
        checked = 0
        for i in range(200):
            t = random_tree(rng.randrange(6, 30), i)
            state = characterize._Peel(t.order, t.parent)
            while state.n > 3:
                u = rng.choice([v for v, a in enumerate(state.adj) if a])
                w = rng.choice(sorted(state.adj[u]))
                from_u, from_w = trees._bfs(state.adj, u)[2], trees._bfs(state.adj, w)[2]
                piece = [x for x, d in enumerate(from_u) if 0 <= d < from_w[x]]
                if state.n - len(piece) >= 3:
                    state.remove(piece)
                    assert characterize._select_triple(state) == state_triple(state)
                    checked += 1
        assert checked > 1000

    def test_one_tree_built_per_member(self, wide_trees, monkeypatch):
        # the peel works on one mutable state and the replay on growing
        # lists, checked against the input's own edges, so no Tree is built
        calls = []
        real = Tree.__post_init__

        def counting(self, **kwargs):
            calls.append(self.n)
            return real(self, **kwargs)

        monkeypatch.setattr(Tree, "__post_init__", counting)
        members = 0
        for t in wide_trees(4, 12):
            if not attains_lower_bound(t):
                continue
            calls.clear()
            decompose_to_p4(t)
            assert calls == [], t
            members += 1
        assert members == 307

    def test_peel_classes_match_recomputed(self, wide_trees):
        # each removal reclassifies only near its edge, and only when the
        # rest's end of it changes class; the classes must still equal their
        # definitions on the whole remaining tree, and the lazy heaps hold
        # every support of degree 2 (ends) and with two leaves (doubles)
        for t in wide_trees(5, 12):
            if not attains_lower_bound(t):
                continue
            state = characterize._Peel(t.order, t.parent)
            while state.n > 4:
                state.remove(characterize._proof_move(state)[1])
                adj = state.adj
                alive = [v for v, a in enumerate(adj) if a]
                leaves = {v for v in alive if len(adj[v]) == 1}
                supports = {v for v in alive if v not in leaves and adj[v] & leaves}
                semi = {v for v in alive
                        if v not in leaves | supports and adj[v] & supports}
                assert len(alive) == state.n, t
                assert (state.leaves, state.supports, state.semi) == (
                    leaves, supports, semi), t
                assert {s for s in supports if len(adj[s]) == 2} <= set(state.ends), t
                assert {s for s in supports
                        if len(adj[s] & leaves) > 1} <= set(state.doubles), t

    @pytest.mark.parametrize("piece", [(1,), (1, 2), (0, 3), (9,), (-1,)])
    def test_peel_rejects_a_piece_not_hanging_by_one_edge(self, piece):
        # path 0-1-2-3-4: (1,) and (1, 2) split it, (0, 3) is two pieces,
        # 9 and -1 are not vertices
        p5 = path(5)
        state = characterize._Peel(p5.order, p5.parent)
        with pytest.raises(NotATreeError):
            state.remove(piece)

    def test_certificate_text_pinned(self, wide_trees):
        # certificate_to_text of every lower-family member with n <= 12,
        # and with n <= 14, in enumeration order, as the peel over rebuilt
        # trees, and the peel with one-link checks by full folds, produced it
        digests = {12: hashlib.sha256(), 14: hashlib.sha256()}
        members = {12: 0, 14: 0}
        for t in wide_trees(4, 14):
            cert = decompose_to_p4(t)
            if cert is not None:
                for hi, digest in digests.items():
                    if t.n <= hi:
                        digest.update(certificate_to_text(cert).encode())
                        members[hi] += 1
        assert members == {12: 307, 14: 1389}
        assert {hi: d.hexdigest() for hi, d in digests.items()} == {
            12: "74a81de199e45c6ecb14b3731f48417ed06bca91cbbe5f517fead9ad80accddd",
            14: "4c7f84e3dbdbec99676ee776968d45849ce83df64ddf02cd752be98860ba906b",
        }

    def test_q_tree_and_comb_certificates_pinned(self):
        # certificate_to_text of q_tree(r), 2 <= r <= 100, then comb(k),
        # 2 <= k <= 59: the peels without semi-supports run mostly here
        digest = hashlib.sha256()
        for t in [q_tree(r) for r in range(2, 101)] + [comb(k) for k in range(2, 60)]:
            digest.update(certificate_to_text(decompose_to_p4(t)).encode())
        assert digest.hexdigest() == (
            "21f518ef9a56efffb1436c032e87ef22328fb67f8f62421b55322fbe598d7e34")

    def test_grown_member_certificates_pinned(self):
        # certificate_to_text of members grown from P_4 with 40 to 320
        # vertices: the O3 walk and the one-link O2 check run more often
        # here than on the small members
        digest = hashlib.sha256()
        for n in (40, 80, 160, 320):
            for seed in (0, 1):
                cert = decompose_to_p4(grown_member(n, seed))
                digest.update(certificate_to_text(cert).encode())
        assert digest.hexdigest() == (
            "88f5e0dd5a1a7f21cfac37006014c409b586b3a32df82fd139cf9538409bcc5d")

    def test_no_semi_support_peels_see_a_support_tree(self, wide_trees, monkeypatch):
        # the no-semi-support peel reads the support tree's ends off vertex
        # degrees; on every state it runs on, each non-leaf must be a
        # support with exactly one leaf, and there are at least 3 supports
        real = characterize._proof_move
        seen = []

        def checking(state):
            adj, leaves, supports = state.adj, state.leaves, state.supports
            if not state.semi and all(len(adj[x] & leaves) < 2 for x in supports):
                for v, nbrs in enumerate(adj):
                    if nbrs and v not in leaves:
                        assert v in supports and len(nbrs & leaves) == 1, state.adj
                assert len(supports) >= 3
                seen.append(state.n)
            return real(state)

        monkeypatch.setattr(characterize, "_proof_move", checking)
        for r in range(2, 31):
            decompose_to_p4(q_tree(r))
        for t in wide_trees(4, 12):
            decompose_to_p4(t)
        assert len(seen) == 790

    def test_bfs_runs_per_step(self, monkeypatch):
        # the peel keeps the input's rooting: one rerooting pass gives the
        # first triples, and each removal refreshes far ends near its edge,
        # so the only BFS is the one for the input's canonical code; a BFS
        # or a distance matrix per move would make the certificate
        # quadratic or cubic
        t = grown_member(301, seed=0)
        bfs, passes = [], []
        real_bfs, real_far_ends = trees._bfs, characterize._far_ends

        def counting_bfs(adj, root):
            bfs.append(root)
            return real_bfs(adj, root)

        def counting_far_ends(*args):
            passes.append(args)
            return real_far_ends(*args)

        monkeypatch.setattr(trees, "_bfs", counting_bfs)
        monkeypatch.setattr(characterize, "_far_ends", counting_far_ends)
        cert = decompose_to_p4(t)
        assert len(cert.steps) > 100
        assert len(bfs) <= 1 and len(passes) <= 1
        assert not hasattr(characterize, "_bfs")
        assert not hasattr(characterize, "distance_matrix")

    def test_far_ends_computed_per_peel(self, monkeypatch):
        # a far end is computed for a triple when it starts or when its far
        # leaf is peeled, on average less than twice per peel
        t = grown_member(301, seed=0)
        calls = []
        real = characterize._Peel.far_end

        def counting(state, s, v):
            calls.append((s, v))
            return real(state, s, v)

        monkeypatch.setattr(characterize._Peel, "far_end", counting)
        cert = decompose_to_p4(t)
        assert len(cert.steps) > 100
        assert len(calls) <= 2 * len(cert.steps)

    def test_one_diameter_per_certificate(self, monkeypatch):
        # the membership precondition reads diameter >= 3 off the vertex
        # degrees, and the peels read vertex classes only
        t = grown_member(301, seed=0)
        calls = []
        real = trees.diameter

        def counting(tree):
            calls.append(tree.n)
            return real(tree)

        monkeypatch.setattr(trees, "diameter", counting)
        cert = decompose_to_p4(t)
        assert len(cert.steps) > 100
        assert calls == []
        assert not hasattr(characterize, "diameter")


class TestVerifyCertificate:
    def test_empty_vs_p4(self):
        cert = Certificate((), canonical_code(path(4)))
        assert verify_certificate(cert, path(4))

    def test_bad_precondition_step(self):
        cert = Certificate(
            (OperationStep("O1", 0, (4,)),), canonical_code(path(5))
        )
        with pytest.raises(InvalidStepError) as exc:
            verify_certificate(cert, path(5))
        assert exc.value.step_index == 0

    def test_mismatched_target(self):
        cert = Certificate((), canonical_code(path(4)))
        with pytest.raises(CertificateMismatchError):
            verify_certificate(cert, path(5))

    def test_wrong_recorded_code(self):
        cert = Certificate((), b"nonsense")
        with pytest.raises(CertificateMismatchError):
            verify_certificate(cert, path(4))


class TestCertificateText:
    def test_round_trip(self):
        ds = double_star(3, 2)
        cert = decompose_to_p4(ds)
        text = certificate_to_text(cert)
        assert text.startswith("base=P4\n")
        assert text.rstrip().endswith(f"canon={cert.final_code.hex()}")
        back = certificate_from_text(text)
        assert back.steps == cert.steps
        assert back.final_code == cert.final_code
        assert verify_certificate(back, ds)

    def test_bad_text(self):
        with pytest.raises(CertificateMismatchError):
            certificate_from_text("O1 attach=0 new=4\ncanon=00")
        with pytest.raises(CertificateMismatchError):
            certificate_from_text("base=P4\nO9 attach=0 new=4\ncanon=00")
        # int() reads other scripts' digits: these lines parsed as
        # attach=2 new=(4,) and new=(4, 5)
        for step in ("O1 attach=\uff12 new=\u0664", "O1 attach=2 new=4,\u0665"):
            with pytest.raises(CertificateMismatchError):
                certificate_from_text(f"base=P4\n{step}\ncanon=00")
        # an edited certificate of a real member no longer verifies
        ds = double_star(3, 2)
        text = certificate_to_text(decompose_to_p4(ds))
        edited = re.sub("attach=([0-9])", lambda m: "attach=" + chr(0xFF10 + int(m[1])), text)
        assert edited != text
        with pytest.raises(CertificateMismatchError):
            certificate_from_text(edited)

    @pytest.mark.parametrize("canon", ["zz", "0", "28 28", "2 8", "+28", "\u0662\u0668"])
    def test_bad_canon_hex(self, canon):
        with pytest.raises(CertificateMismatchError):
            certificate_from_text(f"base=P4\ncanon={canon}\n")


class TestExhaustiveSearch:
    def test_figure_captions(self):
        assert exhaustive_sequence_search(figure_tree(1), 2) == [
            ("O3", "O3"), ("O4", "O3"),
        ]
        assert exhaustive_sequence_search(figure_tree(2), 2) == [
            ("O3", "O4"), ("O4", "O4"),
        ]
        assert exhaustive_sequence_search(figure_tree(3), 1) == [("O2",)]
        # allowing longer sequences adds nothing for the 6-vertex tree
        assert exhaustive_sequence_search(figure_tree(3), 2) == [("O2",)]

    def test_p4_trivial(self):
        assert exhaustive_sequence_search(path(4), 2) == [()]

    @pytest.mark.parametrize("tree", [double_star(2, 2), path(4)],
                             ids=["double_star", "p4"])
    def test_negative_max_len_rejected(self, tree):
        with pytest.raises(BadParameterError):
            exhaustive_sequence_search(tree, -1)

    def test_p6_unreachable(self):
        assert exhaustive_sequence_search(path(6), 3) == []

    def test_search_agrees_with_membership(self, wide_trees):
        # a tree of order <= 8 is reachable within 4 steps iff it attains
        # the lower bound
        for t in wide_trees(4, 8):
            seqs = exhaustive_sequence_search(t, 4)
            assert bool(seqs) == attains_lower_bound(t)
