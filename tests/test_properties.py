"""Hypothesis property tests: the DPs against the brute-force oracle,
invariance under relabeling and the certificate peel's rerooting pass
against BFS, on trees drawn as Prufer sequences; and certificates of
lower-family members grown from P_4 by drawn valid O1-O4 steps.

Runs are derandomized, so the drawn trees are the same on every run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from treedom import (
    OperationStep,
    PreconditionViolatedError,
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
from treedom.characterize import _far_ends
from treedom.generators import OP_KINDS, OP_SIZES

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
    far = _far_ends(tree)
    assert len(far) == 2 * (tree.n - 1)
    for u, w in tree.edges:
        for a, b in ((u, w), (w, u)):
            # x is on b's side of the edge a-b iff it is closer to b
            from_a, from_b = bfs_distances(tree, a), bfs_distances(tree, b)
            side = [x for x in range(tree.n) if from_b[x] < from_a[x]]
            d = max(from_b[x] for x in side)
            assert far[(a, b)] == (d, min(x for x in side if from_b[x] == d))


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_grown_members_certify(data):
    n = data.draw(st.integers(5, 60))
    tree = path(4)
    while tree.n < n:
        kind = data.draw(st.sampled_from([k for k in OP_KINDS if OP_SIZES[k] <= n - tree.n]))
        start = data.draw(st.integers(0, tree.n - 1))
        # the first vertex from start on that the operation accepts; every
        # tree of order >= 4 has one for each kind
        for i in range(tree.n):
            try:
                tree = apply_operation(tree, OperationStep(kind, (start + i) % tree.n))
                break
            except PreconditionViolatedError:
                continue
    assert invariant_value(tree, "tcoi") == tree.n - invariant_value(tree, "beta")
    cert = decompose_to_p4(tree)
    assert verify_certificate(cert, tree)
