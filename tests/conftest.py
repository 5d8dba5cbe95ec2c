from functools import lru_cache

import pytest

from treedom import enumerate_trees, invariant_value, solvers
from treedom.trees import diameter, structure


@lru_cache(maxsize=None)
def trees_of_order(n):
    return tuple(enumerate_trees(n))


@lru_cache(maxsize=None)
def profile(tree):
    """(n, diam, #leaves, beta, gamma_t, tcoi) with None where undefined."""
    rep = structure(tree)
    return (
        tree.n,
        rep.diameter,
        len(rep.leaves),
        invariant_value(tree, "beta"),
        invariant_value(tree, "gamma_t") if tree.n >= 2 else None,
        invariant_value(tree, "tcoi") if tree.n >= 3 else None,
    )


@pytest.fixture(scope="session")
def corpus():
    """corpus(lo, hi) -> iterator over one tree per isomorphism class."""

    def get(lo, hi):
        for n in range(lo, hi + 1):
            yield from trees_of_order(n)

    return get


@pytest.fixture(scope="session")
def tree_profile():
    return profile


@pytest.fixture(scope="session")
def wide_trees():
    """corpus restricted to diameter >= 3 (where the families are defined)."""

    def get(lo, hi):
        for n in range(lo, hi + 1):
            for t in trees_of_order(n):
                if diameter(t) >= 3:
                    yield t

    return get


@pytest.fixture
def dp_calls(monkeypatch):
    """Count the calls made to the weighted DPs."""
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(solvers, "_DP", {k: counting(f) for k, f in solvers._DP.items()})
    return calls
