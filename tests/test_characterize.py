import random

import pytest

from treedom import (
    Certificate,
    CertificateMismatchError,
    FamilyFSpec,
    InternalError,
    InvalidStepError,
    OperationStep,
    Tree,
    UndefinedInvariantError,
    apply_operation,
    attains_lower_bound,
    attains_upper_bound,
    canonical_code,
    certificate_from_text,
    certificate_to_text,
    decompose_to_p4,
    double_star,
    exhaustive_sequence_search,
    family_f,
    invariant_value,
    is_independent_set,
    path,
    random_tree,
    serialize_edge_list,
    star,
    structural_upper_bound_check,
    structure,
    upper_family_check,
    verify_certificate,
)
from treedom import characterize
from treedom.cli import main


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

    def test_each_peel_validated_once(self, monkeypatch):
        calls = []
        real = characterize.in_some_optimal_set

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(characterize, "in_some_optimal_set", counting)
        cert = decompose_to_p4(double_star(3, 3))
        assert len(cert.steps) == 4
        assert len(calls) == len(cert.steps)

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

    def test_p6_unreachable(self):
        assert exhaustive_sequence_search(path(6), 3) == []

    def test_search_agrees_with_membership(self, wide_trees):
        # a tree of order <= 8 is reachable within 4 steps iff it attains
        # the lower bound
        for t in wide_trees(4, 8):
            seqs = exhaustive_sequence_search(t, 4)
            assert bool(seqs) == attains_lower_bound(t)
