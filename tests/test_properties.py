"""Hypothesis property tests: the DPs against the brute-force oracle,
invariance under relabeling, and the certificate peel's rerooting pass
and its far ends after drawn removals against BFS, on trees drawn as
Prufer sequences; certificates of lower-family members grown from P_4 by
drawn valid O1-O4 steps, the invariant shifts of each step, the
certificate replay against step-by-step apply_operation on drawn step
sequences, and the incremental membership, on a tree grown by drawn steps
and on one cut by drawn removals, against the full fold.

Runs are derandomized, so the drawn trees are the same on every run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from treedom import (
    InvalidStepError,
    OperationStep,
    PreconditionViolatedError,
    TreedomError,
    apply_operation,
    bfs_distances,
    brute_force,
    decompose_to_p4,
    in_some_optimal_set,
    independence_number,
    invariant_value,
    path,
    prufer_decode,
    tcoi_number,
    total_domination_number,
    verify_certificate,
)
from treedom.characterize import _far_ends, _Peel, _replay
from treedom.generators import OP_KINDS, OP_SIZES, _attach
from treedom.solvers import _Membership
from treedom.trees import _bfs

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)


@st.composite
def trees(draw, lo=3, hi=14):
    n = draw(st.integers(lo, hi))
    return prufer_decode(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)), n)


@st.composite
def relabelings(draw):
    tree = draw(trees())
    return tree, draw(st.permutations(range(tree.n)))


@DETERMINISTIC
@given(trees())
def test_witnesses_match_brute_force(tree):
    assert independence_number(tree) == brute_force(tree, "beta")
    assert total_domination_number(tree) == brute_force(tree, "gamma_t")
    assert tcoi_number(tree) == brute_force(tree, "tcoi")


@DETERMINISTIC
@given(relabelings())
def test_invariant_under_relabeling(case):
    # relabeling moves vertex 0, so the DPs fold along another BFS order
    tree, perm = case
    other = tree.relabeled(dict(enumerate(perm)))
    for which in ("beta", "gamma_t", "tcoi"):
        assert invariant_value(other, which) == invariant_value(tree, which)
    for which in ("beta", "tcoi"):
        for v in range(tree.n):
            assert in_some_optimal_set(other, perm[v], which) == in_some_optimal_set(tree, v, which)


@DETERMINISTIC
@given(trees(lo=5, hi=40))
def test_far_ends_match_bfs(tree):
    down, up = _far_ends(tree.adj, tree.order, tree.parent)
    for u, w in tree.edges:
        for a, b in ((u, w), (w, u)):
            # x is on b's side of the edge a-b iff it is closer to b
            from_a, from_b = bfs_distances(tree, a), bfs_distances(tree, b)
            side = [x for x in range(tree.n) if from_b[x] < from_a[x]]
            d = max(from_b[x] for x in side)
            got = down[b] if tree.parent[b] == a else up[a]
            assert got == (-d, min(x for x in side if from_b[x] == d))


def side_far_end(adj, a, b):
    """The far end of the directed edge (a, b) on adjacency sets, by BFS."""
    from_a, from_b = _bfs(adj, a)[2], _bfs(adj, b)[2]
    side = [x for x in range(len(adj)) if 0 <= from_b[x] < from_a[x]]
    d = max(from_b[x] for x in side)
    return (-d, min(x for x in side if from_b[x] == d))


def drawn_removals(data, state, least):
    """Cut drawn edges of what the _Peel state has left and remove either
    side, the one holding the input's root included, leaving at least
    `least` vertices; yield after each removal, and stop early when
    neither side of the drawn edge can go."""
    for _ in range(data.draw(st.integers(1, 6))):
        if state.n <= least:
            return
        edges = sorted((u, w) for u, a in enumerate(state.adj) for w in a)
        u, w = data.draw(st.sampled_from(edges))
        from_u, from_w = _bfs(state.adj, u)[2], _bfs(state.adj, w)[2]
        piece = [x for x, d in enumerate(from_u) if 0 <= d < from_w[x]]
        if state.n - len(piece) < least:
            piece = [x for x, d in enumerate(from_w) if 0 <= d < from_u[x]]
        if state.n - len(piece) < least:
            return
        state.remove(piece)
        yield


@DETERMINISTIC
@given(st.data())
def test_peel_far_ends_match_bfs(data):
    # with the far ends set up before the first cut or after it: every far
    # end the peel reads off its maintained subtree ends must still be the
    # BFS one on what is left
    tree = data.draw(trees(lo=5, hi=30))
    state = _Peel(tree.order, tree.parent)
    if data.draw(st.booleans()):
        state.key_triples()
    for _ in drawn_removals(data, state, 2):
        if state.down is None:
            state.key_triples()
        # a vertex whose parent was removed has parent -1
        for x, nbrs in enumerate(state.adj):
            assert not nbrs or state.parent[x] == -1 or state.adj[state.parent[x]]
        for a, nbrs in enumerate(state.adj):
            for b in nbrs:
                assert state.far_end(a, b) == side_far_end(state.adj, a, b)


def assert_peel_upkeep(state):
    """The classes of a _Peel state equal their definitions on what is
    left, and its lazy heaps hold every live candidate: each support of
    degree 2 in ends, each support with two leaves in doubles and, once
    keyed, each leaf-support-semi-support triple in triples."""
    adj = state.adj
    alive = [v for v, a in enumerate(adj) if a]
    leaves = {v for v in alive if len(adj[v]) == 1}
    supports = {v for v in alive if v not in leaves and adj[v] & leaves}
    semi = {v for v in alive if v not in leaves | supports and adj[v] & supports}
    assert len(alive) == state.n
    assert (state.leaves, state.supports, state.semi) == (leaves, supports, semi)
    assert {s for s in supports if len(adj[s]) == 2} <= set(state.ends)
    assert {s for s in supports if len(adj[s] & leaves) > 1} <= set(state.doubles)
    if state.triples is not None:
        keyed = {(h, v) for _, h, _, v in state.triples}
        for h in leaves:
            (s,) = adj[h]
            assert {(h, v) for v in adj[s] & semi} <= keyed


@DETERMINISTIC
@given(st.data())
def test_peel_classes_and_heaps_after_drawn_removals(data):
    # remove keeps each class and heap by what changes at the rest's end b
    # of the cut edge, and most removals leave b's class, and so every
    # class, as it was; after every drawn removal, with the triples keyed
    # before the first cut or not at all, the classes must equal their
    # definitions and the heaps hold every candidate
    tree = data.draw(trees(lo=5, hi=30))
    state = _Peel(tree.order, tree.parent)
    if data.draw(st.booleans()):
        state.key_triples()
    assert_peel_upkeep(state)
    for _ in drawn_removals(data, state, 3):
        assert_peel_upkeep(state)


def draw_valid_step(data, tree, kinds=OP_KINDS):
    """(step, grown tree) for a drawn kind at the first vertex from a drawn
    start on that the operation accepts; every tree of order >= 4 has one
    for each kind."""
    kind = data.draw(st.sampled_from(kinds))
    start = data.draw(st.integers(0, tree.n - 1))
    for i in range(tree.n):
        step = OperationStep(kind, (start + i) % tree.n)
        try:
            return step, apply_operation(tree, step)
        except PreconditionViolatedError:
            continue
    raise AssertionError(f"no vertex accepts {kind}")


def draw_member(data, n):
    """A lower-family member of order n, grown from P_4 by drawn valid steps."""
    tree = path(4)
    while tree.n < n:
        _, tree = draw_valid_step(
            data, tree, [k for k in OP_KINDS if OP_SIZES[k] <= n - tree.n])
    return tree


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_grown_members_certify(data):
    tree = draw_member(data, data.draw(st.integers(5, 60)))
    assert invariant_value(tree, "tcoi") == tree.n - invariant_value(tree, "beta")
    cert = decompose_to_p4(tree)
    assert verify_certificate(cert, tree)


# (tcoi, beta) after a valid step minus before it
SHIFTS = {"O1": (0, 1), "O2": (1, 1), "O3": (2, 2), "O4": (2, 2)}


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_invariant_shifts_under_operations(data):
    tree = draw_member(data, data.draw(st.integers(4, 30)))
    step, grown = draw_valid_step(data, tree)
    before = (invariant_value(tree, "tcoi"), invariant_value(tree, "beta"))
    after = (invariant_value(grown, "tcoi"), invariant_value(grown, "beta"))
    assert (after[0] - before[0], after[1] - before[1]) == SHIFTS[step.op_kind]
    assert after[0] == grown.n - after[1]


def fold_apply(steps):
    """The replay as a fold of apply_operation: ("ok", edges) or ("failed",
    step index, type of the error)."""
    tree = path(4)
    for i, step in enumerate(steps):
        try:
            tree = apply_operation(tree, step)
        except TreedomError as exc:
            return "failed", i, type(exc)
    return "ok", tree.edges


@settings(DETERMINISTIC, max_examples=300)
@given(st.data())
def test_replay_matches_apply_fold(data):
    # valid steps, with or without their new labels, then maybe one step
    # drawn without regard to validity: its attachment vertex may be out of
    # range or in no optimal set, and its labels wrong
    tree, steps = path(4), []
    for _ in range(data.draw(st.integers(0, 10))):
        step, grown = draw_valid_step(data, tree)
        if data.draw(st.booleans()):
            step = OperationStep(step.op_kind, step.attach_vertex,
                                 range(tree.n, grown.n))
        steps.append(step)
        tree = grown
    if data.draw(st.booleans()):
        kind = data.draw(st.sampled_from(OP_KINDS))
        first = tree.n + data.draw(st.sampled_from([0, 0, 1]))
        labels = data.draw(st.sampled_from([None, range(first, first + OP_SIZES[kind])]))
        steps.append(OperationStep(kind, data.draw(st.integers(-1, tree.n)), labels))
    expected = fold_apply(steps)
    try:
        got = "ok", tuple(sorted(_replay(steps)))
    except InvalidStepError as exc:
        got = "failed", exc.step_index, type(exc.__cause__)
    assert got == expected


@settings(DETERMINISTIC, max_examples=150)
@given(st.data())
def test_membership_walks_match_full_fold(data):
    # grow P_4 by drawn valid steps and keep a _Membership up to date, as
    # the replay does: after each step its answer for every vertex and both
    # invariants must be the full fold's
    tree, parent = path(4), [-1, 0, 1, 2]
    sets = _Membership(parent, [0, 1, 2, 3])
    for _ in range(data.draw(st.integers(1, 12))):
        step, tree = draw_valid_step(data, tree)
        sets.add(_attach(parent, [], step, lambda v, which: True))
        for which in ("beta", "tcoi"):
            got = [sets.member(v, which) for v in range(tree.n)]
            assert got == [in_some_optimal_set(tree, v, which) for v in range(tree.n)]


@settings(DETERMINISTIC, max_examples=150)
@given(st.data())
def test_membership_cuts_match_full_fold(data):
    # cut drawn edges of a drawn tree and remove either side, the one
    # holding the input's root included, through a _Peel that keeps a
    # _Membership, built before the first cut or after it, as the one-link
    # check does: after each cut its answer for every vertex left and both
    # invariants must be the full fold's on what is left
    tree = data.draw(trees(lo=5, hi=24))
    state = _Peel(tree.order, tree.parent)
    if data.draw(st.booleans()):
        state.sets = _Membership(state.parent, tree.order)
    for _ in drawn_removals(data, state, 3):
        removed = {x for x, a in enumerate(state.adj) if not a}
        if state.sets is None:
            state.sets = _Membership(state.parent, [x for x in tree.order if state.adj[x]])
        rest, label = tree.without(removed)
        for which in ("beta", "tcoi"):
            got = [state.sets.member(v, which) for v in label]
            assert got == [in_some_optimal_set(rest, label[v], which) for v in label]
