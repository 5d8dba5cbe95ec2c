import collections
import hashlib
import itertools
import json
import random

import pytest

from treedom import census, characterize, solvers, trees
from treedom import (
    BadParameterError,
    InternalError,
    TooLargeError,
    Tree,
    attains_lower_bound,
    attains_upper_bound,
    canonical_code,
    check_distance_remark,
    check_minimality_agreement,
    classify,
    comb,
    diameter,
    distance_matrix,
    enumerate_trees,
    invariant_value,
    optimal_sets,
    path,
    prufer_decode,
    q_tree,
    records_to_csv,
    run_census,
    serialize_edge_list,
    spider,
    star,
    structural_upper_bound_check,
    structure,
)
from treedom.cli import main

# unlabeled trees per order (standard reference sequence)
FREE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
    10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
    17: 48629, 18: 123867,
}


def rooted_level_sequences(n):
    """Canonical level sequences of every rooted tree on n vertices
    (Beyer-Hedetniemi 1980), lexicographically decreasing from the path."""
    seq = list(range(n))
    while True:
        yield seq
        p = max((i for i in range(n) if seq[i] > 1), default=-1)
        if p < 0:
            return
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        seq = seq[:p] + [seq[q + (i - p) % (p - q)] for i in range(p, n)]


def free_codes_by_filter(n):
    """Canonical codes of the free trees on n vertices, found by keeping one
    rooted tree per code."""
    codes = set()
    for seq in rooted_level_sequences(n):
        latest = [0] * n
        edges = []
        for i in range(1, n):
            edges.append((latest[seq[i] - 1], i))
            latest[seq[i]] = i
        codes.add(canonical_code(Tree(n, tuple(edges))))
    return codes


@pytest.fixture
def counting(monkeypatch):
    """counting(owner, name) counts the calls made to owner.name."""
    calls = {}

    def install(owner, name):
        fn = getattr(owner, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return install


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_known_counts(self, n):
        assert len(enumerate_trees(n)) == FREE_TREE_COUNTS[n]

    @pytest.mark.parametrize("n", [17, 18])
    def test_level_sequence_counts(self, n):
        # the sequences alone, without building the trees
        assert sum(1 for _ in census._free_level_sequences(n)) == FREE_TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_rooted_filter(self, n):
        assert {canonical_code(t) for t in enumerate_trees(n)} == free_codes_by_filter(n)

    def test_each_tree_built_once(self, counting):
        calls = counting(Tree, "__post_init__")
        counting(census, "canonical_code")
        for n in (1, 2, 9, 12):
            before = calls["__post_init__"]
            got = enumerate_trees(n)
            assert calls["__post_init__"] - before == len(got) == FREE_TREE_COUNTS[n]
        assert calls["canonical_code"] == 0

    def test_n4(self):
        got = enumerate_trees(4)
        assert len(got) == 2
        codes = {canonical_code(t) for t in got}
        assert codes == {canonical_code(path(4)), canonical_code(star(4))}

    def test_distinct_classes(self):
        for n in range(1, 11):
            codes = [canonical_code(t) for t in enumerate_trees(n)]
            assert len(codes) == len(set(codes))

    def test_deterministic_order(self):
        a = [t.edges for t in enumerate_trees(9)]
        b = [t.edges for t in enumerate_trees(9)]
        assert a == b

    def test_matches_prufer_closure(self):
        # every labeled tree arises from a Prufer sequence; the canonical
        # classes of all of them must equal the enumerated classes.  The
        # scan stops once it has met FREE_TREE_COUNTS[n] classes: that is
        # every class there is (test_known_counts pins the count), so the
        # rest of the sequences cannot add one
        for n in range(3, 9):
            seen = set()
            for seq in itertools.product(range(n), repeat=n - 2):
                seen.add(canonical_code(prufer_decode(list(seq), n)))
                if len(seen) == FREE_TREE_COUNTS[n]:
                    break
            assert seen == {canonical_code(t) for t in enumerate_trees(n)}

    def test_bounds(self):
        with pytest.raises(BadParameterError):
            enumerate_trees(0)
        with pytest.raises(TooLargeError):
            enumerate_trees(19)


class TestClassify:
    def test_p4(self):
        rec = classify(path(4))
        assert (rec.in_t_beta, rec.in_t_l, rec.structural_tl,
                rec.certificate_found) == (True, True, True, True)

    def test_p6(self):
        rec = classify(path(6))
        assert rec.in_t_beta is False and rec.certificate_found is False
        assert rec.in_t_l is True and rec.structural_tl is True
        assert (rec.beta, rec.gamma_t, rec.tcoi) == (3, 4, 4)

    def test_each_invariant_computed_once(self, dp_calls):
        # every value is read off the memo's subtree summaries, each folded
        # once per run, and a member's certificate asks _Membership walks,
        # so no full DP fold runs, for a member (P_4) or for any census tree
        classify(path(6))
        classify(path(4))
        records, _ = run_census(9)
        assert sum(r.in_t_beta is True for r in records) > 0
        assert dp_calls == []

    def test_one_structure_per_tree(self, counting):
        # classify reads the vertex classes and the diameter off the memo's
        # subtree summaries of one center-rooted preorder: one BFS (the
        # center's), no diameter BFS, no vertex classes, no StructureReport
        p6 = path(6)
        counting(characterize, "_vertex_classes")
        counting(trees, "_vertex_classes")
        counting(trees, "structure")
        calls = counting(trees, "_bfs")
        classify(p6)
        assert calls == {"_vertex_classes": 0, "structure": 0, "_bfs": 1}

    def test_each_code_computed_once(self, counting):
        # each record's code is joined from the memo's subtree codes, with
        # no Tree-level canonical_code; the one level-code pass per member
        # of order > 4 encodes the smaller member its proof move leaves
        counting(census, "canonical_code")
        counting(trees, "_level_code")
        calls = counting(census, "_level_code")
        records, _ = run_census(9)
        assert len(records) == 93
        assert sum(r.in_t_beta is True and r.n > 4 for r in records) == 35
        assert calls == {"canonical_code": 0, "_level_code": 35}

    def test_sequence_core_matches_classify(self):
        # classify re-derives a center-rooted preorder from any labeling
        rng = random.Random(10)
        for n in range(1, 11):
            for seq in census._free_level_sequences(n):
                want = census._classify_levels(seq, {})
                perm = list(range(n))
                rng.shuffle(perm)
                tree = census._tree_from_levels(seq).relabeled(dict(enumerate(perm)))
                assert classify(tree) == want
                assert want.canon == canonical_code(tree)

    def test_trees_built_only_where_needed(self, counting, monkeypatch):
        # order 13 is above the subset checks' cap, and a member's
        # certificate peels its level sequence's rooting, so no Tree of
        # order 13 is built; every smaller tree is built once, for the
        # subset checks
        built = []
        init = Tree.__post_init__

        def counting_init(self, **kwargs):
            built.append(self.n)
            init(self, **kwargs)

        monkeypatch.setattr(Tree, "__post_init__", counting_init)
        records, _ = run_census(13)
        assert any(r.n == 13 and r.in_t_beta for r in records)
        assert 13 not in built
        assert len(built) == report_rows(12)

    def test_records_match_tree_level_references(self):
        # every tree with n <= 12, relabeled at random: classify against
        # the Tree-level DPs, code, classes, diameter and family checks
        rng = random.Random(19)
        for n in range(1, 13):
            for t in enumerate_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                t = t.relabeled(dict(enumerate(perm)))
                rec = classify(t)
                diam = diameter(t)
                assert (rec.canon, rec.n, rec.diameter) == (canonical_code(t), n, diam)
                assert rec.num_leaves == len(structure(t).leaves)
                assert rec.beta == invariant_value(t, "beta")
                assert rec.gamma_t == (invariant_value(t, "gamma_t") if n >= 2 else None)
                assert rec.tcoi == (invariant_value(t, "tcoi") if n >= 3 else None)
                if diam >= 3:
                    assert rec.structural_tl == structural_upper_bound_check(t), t
                    assert rec.in_t_beta == rec.certificate_found == attains_lower_bound(t)
                    assert rec.in_t_l == attains_upper_bound(t)

    def test_smallest_records_pinned(self):
        # the root counts as a leaf with at most one child; gamma_t is
        # undefined on one vertex and tcoi on at most two
        got = [classify(path(n)) for n in (1, 2, 3)]
        assert got == [
            census.CensusRecord(b"()", 1, 0, 1, 1, None, None, None, None, None, None),
            census.CensusRecord(b"(())", 2, 1, 2, 1, 2, None, None, None, None, None),
            census.CensusRecord(b"(()())", 3, 2, 2, 2, 2, 2, None, None, None, None),
        ]

    def test_each_hanging_subtree_summarized_once_per_run(self, monkeypatch):
        # one memo miss per distinct subtree hanging from a center (by its
        # level sequence) in the run, folded vertex by vertex, and one fold
        # per record's root; a second run starts from an empty memo, and
        # classify from its own
        missed, built = [], []
        summary, subtree = census._summary, census._Subtree

        def counting_summary(seg):
            missed.append(seg)
            return summary(seg)

        def counting_subtree(kids):
            built.append(len(kids))
            return subtree(kids)

        monkeypatch.setattr(census, "_summary", counting_summary)
        monkeypatch.setattr(census, "_Subtree", counting_subtree)
        segments = set()
        for n in range(3, 10):
            for seq in census._free_level_sequences(n):
                ones = [i for i in range(1, n) if seq[i] == 1] + [n]
                segments.update(tuple(seq[i:j]) for i, j in zip(ones, ones[1:]))
        for _ in range(2):
            missed.clear()
            built.clear()
            records, _ = run_census(9)
            assert sorted(missed) == sorted(segments)
            assert len(built) == len(records) + sum(map(len, segments))
        rng = random.Random(9)
        seqs = [seq for n in range(3, 10) for seq in census._free_level_sequences(n)]
        for seq, rec in zip(seqs, records):
            perm = list(range(len(seq)))
            rng.shuffle(perm)
            t = census._tree_from_levels(seq).relabeled(dict(enumerate(perm)))
            for _ in range(2):
                missed.clear()
                built.clear()
                assert classify(t) == rec
                assert len(set(missed)) == len(missed)
                assert len(built) == 1 + sum(map(len, missed)) <= len(seq)

    def test_deep_trees_match_tree_level_references(self):
        # radius far above the recursion limit: the memo's folds and the
        # peel run on explicit stacks, and each matches the Tree-level code
        for t in (path(3000), comb(1500), q_tree(1499), spider([1200, 1000, 800])):
            rec = classify(t)
            assert rec.canon == canonical_code(t)
            assert (rec.n, rec.diameter) == (t.n, diameter(t))
            assert rec.num_leaves == len(structure(t).leaves)
            assert rec.beta == invariant_value(t, "beta")
            assert rec.gamma_t == invariant_value(t, "gamma_t")
            assert rec.tcoi == invariant_value(t, "tcoi")
            assert rec.structural_tl == structural_upper_bound_check(t)
            assert rec.in_t_beta == rec.certificate_found == attains_lower_bound(t)
            assert rec.in_t_l == attains_upper_bound(t)

    def test_star6_family_fields_absent(self):
        rec = classify(star(6))
        assert rec.tcoi == 2 and rec.diameter == 2
        assert rec.in_t_beta is None and rec.in_t_l is None
        assert rec.structural_tl is None and rec.certificate_found is None


class TestHarnessChecks:
    def test_distance_remark_small(self, corpus):
        for t in corpus(3, 10):
            assert check_distance_remark(t)

    def test_distance_remark_matches_distance_matrix(self, corpus):
        # on one or two vertices a maximum independent set has a single
        # member, so the remark fails there
        def reference(t):
            dm = distance_matrix(t)
            return all(
                any(u != v and dm[v][u] <= 3 for u in b)
                for b in optimal_sets(t, "beta") for v in b
            )

        got = [check_distance_remark(t) for t in corpus(1, 10)]
        assert got == [reference(t) for t in corpus(1, 10)]
        assert got[:2] == [False, False] and all(got[2:])

    def test_minimality_small(self, corpus):
        for t in corpus(3, 8):
            assert check_minimality_agreement(t)

    def test_minimality_mismatch_is_caught(self, monkeypatch):
        # comb(3) has tcoi sets that are not minimal, so a condition that
        # accepts every set must disagree with single removals; the census
        # asks the mask-level condition that is_minimal_tcoi_set wraps
        monkeypatch.setattr(census, "_minimal_mask", lambda adj, nb, m: True)
        assert not check_minimality_agreement(comb(3))


class TestRunCensus:
    def test_counters_match_direct_recount(self):
        records, report = run_census(10)
        assert report["tree_count"] == sum(
            FREE_TREE_COUNTS[n] for n in range(3, 11)
        )
        upper = 0
        for n in range(3, 11):
            for t in enumerate_trees(n):
                if diameter(t) >= 3 and (
                    structural_upper_bound_check(t) != attains_upper_bound(t)
                ):
                    upper += 1
        c = report["counters"]
        assert c["bound_sandwich_violations"] == 0
        assert c["lower_characterization_mismatches"] == 0
        assert c["distance_remark_violations"] == 0
        assert c["minimality_mismatches"] == 0
        # the harness reports exactly the structural/upper disagreements
        # that exist (see the acceptance suite for their analysis)
        assert c["upper_characterization_mismatches"] == upper
        if upper:
            assert report["first_counterexample"]["check"] == (
                "upper_characterization_mismatches"
            )
            assert not report["all_hold"]

    def test_uncertified_member_is_counted(self, monkeypatch, tmp_path, capsys):
        # a member on which the proof move finds no piece does not reduce
        # to a smaller certified member: it is counted as a lower
        # characterization mismatch, and the run goes on past it.  Planted
        # at the top order, no member reduces through it, and order 8 is
        # clean otherwise, so it is the first counterexample
        planted = plant_move(monkeypatch, 8, lambda move, state: None)
        records, report = run_census(8)
        assert len(records) == report_rows(8)
        assert not report["all_hold"]
        rec = assert_one_planted(records, report, 8, planted)
        assert report["first_counterexample"] == {
            "check": "lower_characterization_mismatches", "n": 8, "canon": rec.canon.hex(),
        }
        # the CLI reports it, and certify on that tree, whose certificate
        # core raises, is an internal error
        for max_n in ("8", "9"):
            planted = plant_move(monkeypatch, 8, lambda move, state: None)
            assert main(["verify", "--max-n", max_n]) == 1
        assert capsys.readouterr().err.count("theorem violations found") == 2

        def failing(order, parent):
            raise InternalError("planted defect")

        monkeypatch.setattr(characterize, "_certificate_steps", failing)
        f = tmp_path / "t.txt"
        f.write_text(serialize_edge_list(member_tree(planted[0])))
        assert main(["certify", str(f)]) == 3
        assert capsys.readouterr().err.startswith("internal error:")

    @pytest.mark.parametrize("kind, defect", [
        # O4's path h1-u1-u2-h2 in reverse: u2 is not next to the attachment
        ("O4", lambda move, state: (move[0], move[1][::-1], move[2])),
        # the pendant 2-path without its leaf
        ("O2", lambda move, state: (move[0], move[1][:1], move[2])),
        # a non-leaf neighbor of the support in place of its leaf: the
        # right shape, but it hangs by more than one edge
        ("O1", lambda move, state: (
            "O1", (min(x for x in state.adj[move[2]] if len(state.adj[x]) > 1),), move[2])),
    ])
    def test_wrong_piece_is_counted(self, monkeypatch, kind, defect):
        planted = plant_move(monkeypatch, 12, defect, kind)
        records, report = run_census(12)
        assert_one_planted(records, report, 12, planted)

    def test_failed_precondition_is_counted(self, monkeypatch):
        # the smaller member's membership structure answers False once, at
        # the first member of order 12
        planted = []

        class Refusing(solvers._Membership):
            def member(self, v, which):
                return False

        def membership(parent, vertices):
            if len(parent) == 12 and not planted:
                planted.append(list(parent))
                return Refusing(parent, vertices)
            return solvers._Membership(parent, vertices)

        monkeypatch.setattr(census, "_Membership", membership)
        records, report = run_census(12)
        assert_one_planted(records, report, 12, planted)

    def test_smaller_member_outside_window_is_counted(self, monkeypatch):
        # a smaller member of order 11 is left by an O1 move at order 12,
        # the top order; its code is replaced by one no member has
        planted, real = [], census._level_code

        def level_code(seq, bicentral):
            if len(seq) == 11 and not planted:
                planted.append(seq)
                return b"(" + real(seq, bicentral)
            return real(seq, bicentral)

        monkeypatch.setattr(census, "_level_code", level_code)
        records, report = run_census(12)
        assert planted
        assert_one_planted(records, report, 12)

    def test_defect_propagates_through_reductions(self, monkeypatch):
        # a member planted at order 8 leaves uncertified exactly the members
        # whose proof moves lead to it, directly or through others; each
        # smaller member is found here from a Tree without the move's piece
        planted = plant_move(monkeypatch, 8, lambda move, state: None)
        records, report = run_census(10)
        bad = canonical_code(member_tree(planted[0]))
        down = {bad}
        seqs = [seq for n in range(3, 11) for seq in census._free_level_sequences(n)]
        for seq, rec in zip(seqs, records, strict=True):
            if rec.in_t_beta and rec.n > 8:
                state = characterize._Peel(range(rec.n), census._levels_parent(seq))
                _, removed, _ = characterize._proof_move(state)
                rest, _ = census._tree_from_levels(seq).without(removed)
                if canonical_code(rest) in down:
                    down.add(rec.canon)
        assert len(down) == 12
        assert report["counters"]["lower_characterization_mismatches"] == len(down)
        assert {r.canon for r in uncertified(records)} == down
        assert report["first_counterexample"] == {
            "check": "lower_characterization_mismatches", "n": 8, "canon": bad.hex(),
        }

    def test_census_agrees_with_classify(self):
        # the census certifies a member by one proof move onto a smaller
        # certified member, classify by its whole certificate: every record
        # is classify's on a random relabeling of its tree
        rng = random.Random(23)
        records, _ = run_census(12)
        seqs = [seq for n in range(3, 13) for seq in census._free_level_sequences(n)]
        for seq, rec in zip(seqs, records, strict=True):
            perm = list(range(len(seq)))
            rng.shuffle(perm)
            assert classify(census._tree_from_levels(seq).relabeled(dict(enumerate(perm)))) == rec

    def test_one_proof_move_per_member(self, counting):
        counting(census, "_certificate_steps")
        calls = counting(census, "_proof_move")
        records, _ = run_census(14)
        members = sum(r.in_t_beta is True and r.n > 4 for r in records)
        assert calls == {"_certificate_steps": 0, "_proof_move": members}

    def test_certified_members_per_order(self):
        records, _ = run_census(16)
        got = collections.Counter(r.n for r in records if r.certificate_found)
        assert [got[n] for n in range(4, 17)] == [
            1, 1, 3, 4, 10, 17, 38, 72, 161, 332, 750, 1630, 3730,
        ]
        assert sum(got.values()) == sum(r.in_t_beta is True for r in records)

    def test_clean_below_nine(self):
        _, report = run_census(8)
        assert report["all_hold"]
        assert report["first_counterexample"] is None

    def test_max_n_below_range(self):
        records, report = run_census(2)
        assert records == [] and report["tree_count"] == 0
        assert report["all_hold"]

    def test_csv_deterministic_and_shaped(self):
        recs1, _ = run_census(8)
        recs2, _ = run_census(8)
        csv1, csv2 = records_to_csv(recs1), records_to_csv(recs2)
        assert csv1 == csv2
        lines = csv1.splitlines()
        assert lines[0] == (
            "canon,n,diam,leaves,beta,gamma_t,tcoi,t_beta,t_l,"
            "structural_tl,certified"
        )
        assert len(lines) == 1 + report_rows(8)
        # diameter-2 rows leave the family cells empty
        star5 = next(l for l in lines if l.split(",")[1:4] == ["5", "2", "4"])
        assert star5.endswith(",2,,,,")

    def test_output_pinned(self):
        # sha256 of the CSV and the indented report JSON of run_census(12),
        # as the release that read each tree off a built Tree produced them
        records, report = run_census(12)
        text = records_to_csv(records) + json.dumps(report, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ebff8922987739ca111b607a2f2f9c3c8631aa69b28f4e96a03b1b2fc251e0e0"
        )

    def test_caps_recorded(self):
        _, report = run_census(5)
        assert report["caps"] == {
            "distance_remark_max_n": 12,
            "minimality_max_n": 10,
        }


def report_rows(max_n):
    return sum(FREE_TREE_COUNTS[n] for n in range(3, max_n + 1))


def plant_move(monkeypatch, order, defect, kind=None):
    """Make the census's proof move give defect(move, state) in place of
    move on the first member of the given order whose move has the given
    kind (any if None).  Returns a list that then holds that member's
    parent list."""
    real, planted = census._proof_move, []

    def move(state):
        got = real(state)
        if state.n == order and not planted and kind in (None, got[0]):
            planted.append(list(state.parent))
            return defect(got, state)
        return got

    monkeypatch.setattr(census, "_proof_move", move)
    return planted


def member_tree(parent):
    return Tree(len(parent), tuple((parent[v], v) for v in range(1, len(parent))))


def uncertified(records):
    return [r for r in records if r.in_t_beta and not r.certificate_found]


def assert_one_planted(records, report, order, planted=None):
    """A defect planted at the top order leaves one member uncertified, of
    that order (the planted one, when planted holds its parent list),
    counted once and with certified false in its CSV row; returns it."""
    (rec,) = uncertified(records)
    assert report["counters"]["lower_characterization_mismatches"] == 1
    assert rec.n == order
    if planted is not None:
        assert canonical_code(member_tree(planted[0])) == rec.canon
    row = records_to_csv(records).splitlines()[1 + records.index(rec)].split(",")
    assert (row[0], row[7], row[10]) == (rec.canon.hex(), "true", "false")
    return rec
