"""Hypothesis property tests: the DPs against the brute-force oracle, and
invariance under relabeling, on trees drawn as Prufer sequences.

Runs are derandomized, so the drawn trees are the same on every run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from treedom import (
    brute_force,
    in_some_optimal_set,
    independence_number,
    invariant_value,
    prufer_decode,
    tcoi_number,
    total_domination_number,
)

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
