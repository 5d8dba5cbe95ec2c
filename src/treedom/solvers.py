"""Exact solvers for independence, total domination, and total co-independent
domination on trees.

Each invariant has two independent routes:

* a linear dynamic program along a rooted vertex order (the BFS order
  from vertex 0 that Tree keeps, or any other), optimizing the total of
  per-vertex weights (unit weights give the value; weights that encode
  vertex positions give the witness, and weights that single out one
  vertex answer membership-in-some-optimal-set, each in one pass, or by
  a walk up from the vertex on a growing tree, _Membership), and
* a brute-force oracle that enumerates every subset as a bit mask and
  evaluates the defining predicate directly, as bool algebra on bit
  columns (column v holds bit v of every mask in a chunk, as one Python
  int).

Witnesses are deterministic: among optimal sets the one whose sorted vertex
list is lexicographically smallest is returned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_

from .errors import (
    NotATcoiSetError,
    TooLargeError,
    UndefinedInvariantError,
    VertexOutOfRangeError,
)
from .trees import VertexSet

BRUTE_FORCE_CAP = 20
# optimal_sets and all_tcoi_sets return every set they find, so their cap is
# lower than the oracle's
SUBSET_CAP = 16
# Witness weights have n bits, so a witness pass takes O(n^2) bit operations
# and holds O(n^2) bits: at this order invariant_report on a path peaks near
# 77 MB max RSS and takes about 0.7 s (CPython 3.11.7, 2.1 GHz Xeon).
WITNESS_MAX_N = 20000
_CHUNK_BITS = 16


# ---------------------------------------------------------------------------
# Set predicates
# ---------------------------------------------------------------------------


def _as_set(tree, members):
    s = frozenset(members)
    for v in s:
        if not (0 <= v < tree.n):
            raise VertexOutOfRangeError(f"vertex {v} not in 0..{tree.n - 1}")
    return s


def is_independent_set(tree, members):
    """True iff no two members are adjacent."""
    s = _as_set(tree, members)
    return not any(u in s and v in s for u, v in tree.edges)


def is_total_dominating_set(tree, members):
    """True iff every vertex of the tree has a neighbor in the set."""
    s = _as_set(tree, members)
    return all(any(w in s for w in tree.adj[v]) for v in range(tree.n))


def is_tcoi_set(tree, members):
    """True iff the set totally dominates and its complement is independent
    and non-empty."""
    s = _as_set(tree, members)
    if len(s) == tree.n:
        return False
    if not is_total_dominating_set(tree, s):
        return False
    rest = frozenset(range(tree.n)) - s
    return is_independent_set(tree, rest)


def is_minimal_tcoi_set(tree, members):
    """Condition-based minimality test for a total co-independent dominating
    set: every member v either is the sole dominator of some vertex, or has
    a neighbor outside the set.  Raises NotATcoiSetError if the input is not
    a tcoi set at all.
    """
    s = _as_set(tree, members)
    if not is_tcoi_set(tree, s):
        raise NotATcoiSetError(f"{sorted(s)} is not a total co-independent dominating set")
    return _minimal_mask(tree.adj, _neighbor_masks(tree), sum(1 << v for v in s))


def _minimal_mask(adj, nb, m):
    """The minimality condition on the tcoi set with mask m, where nb[v] is
    the mask of v's neighbors: v is w's sole dominator when w's in-set
    neighbors are v alone."""
    return all(
        nb[v] & ~m or any(nb[w] & m == 1 << v for w in adj[v])
        for v in range(len(nb)) if m >> v & 1
    )


# ---------------------------------------------------------------------------
# Rooted dynamic programs
#
# Each DP folds along an (order, parent) pair: order lists the tree's
# vertices with every vertex after its parent and order[0] the root, and
# parent[v] is v's parent (a Tree's BFS order and parent, or any such pair,
# such as what a certificate peel has left).  Both weight and parent are
# indexed by vertex label, and labels outside order are never read, except
# that their weights count towards inf.  Each DP starts every vertex at its
# childless state and walks order in reverse, folding each vertex's
# finished state into its parent's and then dropping it.  The root is
# folded into last, so its state ends as the whole tree's.
#
# Every weight must be non-negative (callers pass unit weights, the 1/2/3
# membership weights and the positive witness weights).  The minimizing
# DPs mark an impossible state with inf = sum(weight) + 1 and never clamp
# a sum back to inf: a configuration that uses an impossible state adds
# inf to non-negative terms and so totals at least inf, while every
# feasible configuration totals at most sum(weight) < inf.  The optimum is
# therefore below inf exactly when a feasible set exists, and then equals
# the clamped fold's.  Unclamped totals stay at most n * inf.  The
# folds compare with conditional expressions rather than min() and max(),
# which cost a call each.
# ---------------------------------------------------------------------------


def _beta_opt(order, parent, weight):
    """Maximum total weight of an independent set."""
    dp_in = list(weight)
    dp_out = [0] * len(weight)
    for v in order[:0:-1]:
        p = parent[v]
        i = dp_in[v]
        o = dp_out[v]
        dp_in[p] += o
        dp_out[p] += i if i > o else o
        dp_in[v] = dp_out[v] = None
    i, o = dp_in[order[0]], dp_out[order[0]]
    return i if i > o else o


def _gamma_t_opt(order, parent, weight):
    """Minimum total weight of a total dominating set, or None if infeasible.

    Per-vertex states, parent contribution excluded:
    a = in set & dominated by a child, b = in set & not yet dominated,
    c = out & dominated, d = out & not yet dominated.
    """
    inf = sum(weight) + 1
    st = [(inf, w, inf, 0) for w in weight]
    for v in order[:0:-1]:
        ca, cb, cc, cd = st[v]
        st[v] = None
        p = parent[v]
        a, b, c, d = st[p]
        in_c = ca if ca < cb else cb  # child in the set: dominates p
        out_c = cc if cc < cd else cd  # child out: p must dominate it
        any_c = in_c if in_c < out_c else out_c
        x = a + any_c
        y = b + in_c
        # p out: the child must already be dominated below
        z = c + (ca if ca < cc else cc)
        w = d + ca
        st[p] = (x if x < y else y, b + out_c, z if z < w else w, d + cc)
    a, _, c, _ = st[order[0]]
    ans = a if a < c else c
    return None if ans >= inf else ans


def _tcoi_opt(order, parent, weight):
    """Minimum total weight of a total co-independent dominating set, or
    None on fewer than 3 vertices, where none exists.

    The definition asks for a non-empty complement, but on a tree with
    n >= 3 that clause never binds: for any leaf h, V - {h} totally
    dominates (h's support keeps another neighbor, and no other vertex
    loses one), its complement {h} is independent and non-empty, and it
    weighs no more than V.  So the DP may allow D = V, and it always finds
    a feasible set.

    Per-vertex states, parent contribution excluded:
    a = in set & dominated by a child, b = in set & not yet dominated,
    o = out of the set: its children are in state a (in the set, as the
    complement is independent, and dominated below it), and its parent
    must be in the set.
    """
    if len(order) < 3:
        return None
    inf = sum(weight) + 1
    st = [(inf, w, 0) for w in weight]
    for v in order[:0:-1]:
        ca, cb, co = st[v]
        st[v] = None
        p = parent[v]
        a, b, o = st[p]
        in_c = ca if ca < cb else cb  # child in the set: dominates p
        x = a + (in_c if in_c < co else co)
        y = b + in_c
        st[p] = (x if x < y else y, b + co, o + ca)
    a, _, o = st[order[0]]
    return a if a < o else o


_DP = {"beta": _beta_opt, "gamma_t": _gamma_t_opt, "tcoi": _tcoi_opt}


def _check_defined(n, which):
    if which not in _DP:
        raise ValueError(f"unknown invariant {which!r}")
    if which == "gamma_t" and n < 2:
        raise UndefinedInvariantError("total domination is undefined on a single vertex")
    if which == "tcoi" and n <= 2:
        raise UndefinedInvariantError(
            "total co-independent domination is undefined for trees on at most 2 vertices"
        )


def _dp_witness(tree, which):
    """(value, lexicographically smallest optimal set) from one weighted DP.

    Vertex v weighs 2^n + 2^(n-1-v) for beta (maximized) and
    2^n - 2^(n-1-v) for gamma_t and tcoi (minimized).  A set S then weighs
    |S| * 2^n +/- m(S), where m(S) is the n-bit mask with vertex v at bit
    n-1-v, and 0 <= m(S) < 2^n.  So the optimum first optimizes |S| and,
    among sets of optimal size, maximizes m(S).

    For two distinct sets A, B of equal size, let v be the smallest vertex
    in exactly one of them, say A.  Both share every member below v, so
    A's sorted list has v where B's has a larger vertex: A sorts first.
    A also has the larger mask, because bit n-1-v is the highest bit in
    which the masks differ.  Hence the largest m(S) among optimal sets
    belongs to the lexicographically smallest sorted list, and the optimum
    encodes it: |S| = total >> n for beta, ceil(total / 2^n) otherwise
    (m(S) > 0 there, as the set is non-empty), and m(S) is
    +/-(total - |S| * 2^n).

    The weights have n bits, so the pass takes O(n^2) bit operations and
    memory; above WITNESS_MAX_N vertices it raises TooLargeError.
    """
    n = tree.n
    if n > WITNESS_MAX_N:
        raise TooLargeError(f"witnesses capped at {WITNESS_MAX_N} vertices, got {n}")
    top = 1 << n
    sign = 1 if which == "beta" else -1
    weight = [top + sign * (1 << (n - 1 - v)) for v in range(n)]
    total = _DP[which](tree.order, tree.parent, weight)
    size = total >> n if which == "beta" else -(-total >> n)
    bits = format(sign * (total - size * top), f"0{n}b")
    return size, frozenset(v for v, b in enumerate(bits) if b == "1")


def invariant_value(tree, which):
    """Value of one invariant without witness reconstruction (faster)."""
    _check_defined(tree.n, which)
    val = _unit_value(tree.order, tree.parent, which)
    if val is None:
        raise UndefinedInvariantError(f"no feasible set exists for {which}")
    return val


def _unit_value(order, parent, which):
    """Unit-weight optimum of the tree that (order, parent) spans, or None
    if no feasible set exists."""
    return _DP[which](order, parent, [1] * len(parent))


def independence_number(tree):
    """(beta, witness): maximum independent set size and one such set."""
    return _dp_witness(tree, "beta")


def total_domination_number(tree):
    """(gamma_t, witness); undefined for the single-vertex tree."""
    _check_defined(tree.n, "gamma_t")
    return _dp_witness(tree, "gamma_t")


def tcoi_number(tree):
    """(gamma_t,coi, witness); undefined for trees on at most 2 vertices."""
    _check_defined(tree.n, "tcoi")
    return _dp_witness(tree, "tcoi")


def in_some_optimal_set(tree, v, which):
    """True iff vertex v lies in at least one optimal set for the invariant.

    which is "beta" (maximum independent sets) or "tcoi" (minimum total
    co-independent dominating sets).
    """
    _check_defined(tree.n, which)
    if which == "gamma_t":
        raise ValueError("unsupported invariant 'gamma_t'")
    tree._check_vertex(v)
    # A set S weighs 2|S|, plus 1 (beta) or minus 1 (tcoi) if it holds v.
    # Only sets of optimal size reach the weighted optimum, so the optimum
    # is odd iff some optimal set holds v.  One DP pass.
    weight = [2] * tree.n
    weight[v] = 3 if which == "beta" else 1
    return _DP[which](tree.order, tree.parent, weight) % 2 == 1


# ---------------------------------------------------------------------------
# Incremental membership on a tree that grows and is cut
#
# A vertex's DP state shifts by c when one child's does, so each vertex
# keeps the state folded from its children's normalized states, itself
# normalized by its offset (max(in, out) for beta; min(a, o) for tcoi, the
# optimum at the root), and the optimum is the sum of the offsets.  A
# weight change at v, or a child added to or cut from v, changes the
# normalized states of v and its ancestors up to the first one that holds,
# and no other.  Each fold is one vertex of _beta_opt or _tcoi_opt, with
# inf for an impossible state.  The census folds each distinct rooted
# subtree once with unit weights, by these and _gamma_t_fold.
# ---------------------------------------------------------------------------

_INF = float("inf")


def _beta_fold(w, kids, state):
    """(in - out, max(in, out)) of a vertex of weight w with children kids:
    each child adds its normalized out, -max(in - out, 0), to in."""
    d = w
    for c in kids:
        c = state[c][0]
        if c > 0:
            d -= c
    return d, d if d > 0 else 0


def _tcoi_fold(w, kids, state):
    """((a, b, o) - m, m) of a vertex of weight w with children kids."""
    a, b, o = _INF, w, 0
    for c in kids:
        ca, cb, co = state[c][0]
        in_c = ca if ca < cb else cb
        x = a + (in_c if in_c < co else co)
        y = b + in_c
        a, b, o = x if x < y else y, b + co, o + ca
    m = a if a < o else o
    return (a - m, b - m, o - m), m


def _gamma_t_fold(w, kids, state):
    """((a, b, c, d) - m, m) of a vertex of weight w with children kids, in
    _gamma_t_opt's states, where m is the least of the four: the state
    that puts the whole subtree in the set is always finite, while
    min(a, c), the optimum at a root, is inf on a single vertex."""
    a, b, c, d = _INF, w, _INF, 0
    for k in kids:
        ca, cb, cc, cd = state[k][0]
        in_c = ca if ca < cb else cb
        out_c = cc if cc < cd else cd
        any_c = in_c if in_c < out_c else out_c
        x = a + any_c
        y = b + in_c
        z = c + (ca if ca < cc else cc)
        v = d + ca
        a, b, c, d = x if x < y else y, b + out_c, z if z < v else v, d + cc
    m = a if a < b else b
    x = c if c < d else d
    m = m if m < x else x
    return (a - m, b - m, c - m, d - m), m


_FOLD = {"beta": _beta_fold, "tcoi": _tcoi_fold}


class _Membership:
    """in_some_optimal_set on a tree of order >= 3 that grows and is cut,
    by walks up from the vertex asked about, with every other vertex
    weighing 2.

    parent is the caller's: every vertex of the tree has its parent there,
    or -1 at the root.  add takes vertices already in it, each after its
    parent; cut drops a subtree.  To drop all but v's subtree, the caller
    sets parent[v] = -1: a state holds only its subtree, so none changes.
    state[which][v] is v's (normalized state, offset) pair; an invariant's
    states are folded over order, every vertex added so far, when it is
    first asked about, and kept up to date from then on.
    """

    def __init__(self, parent, vertices):
        self.parent, self.kids, self.order, self.state = parent, [], [], {}
        self.add(vertices)

    def add(self, vertices):
        parent, kids = self.parent, self.kids
        kids += [[] for _ in range(len(parent) - len(kids))]
        for x in vertices:
            if parent[x] >= 0:
                kids[parent[x]].append(x)
        self.order += vertices
        for which, state in self.state.items():
            self._fold(_FOLD[which], state, vertices)
            self._walk(_FOLD[which], state, parent[vertices[0]], 2)

    def _fold(self, fold, state, vertices):
        kids = self.kids
        state += [None] * (len(self.parent) - len(state))
        for x in reversed(vertices):
            state[x] = fold(2, kids[x], state)

    def cut(self, a):
        """Drop a's subtree: a leaves its parent's children, and the parent
        and its ancestors are re-folded until one's state holds."""
        self.kids[self.parent[a]].remove(a)
        for which, state in self.state.items():
            self._walk(_FOLD[which], state, self.parent[a], 2)

    def _walk(self, fold, state, v, w):
        """Re-fold v with weight w, then its ancestors until one's normalized
        state holds; return the optimum's change and the old pairs."""
        kids, parent = self.kids, self.parent
        change, undo = 0, []
        while v >= 0:
            new, old = fold(w, kids[v], state), state[v]
            state[v] = new
            undo.append((v, old))
            change += new[1] - old[1]
            if new[0] == old[0]:
                break
            v, w = parent[v], 2
        return change, undo

    def member(self, v, which):
        state = self.state.get(which)
        if state is None:
            state = self.state[which] = []
            self._fold(_FOLD[which], state, self.order)
        change, undo = self._walk(_FOLD[which], state, v, 3 if which == "beta" else 1)
        for x, old in undo:
            state[x] = old
        return change % 2 == 1


# ---------------------------------------------------------------------------
# Brute-force oracle over all 2^n subsets
# ---------------------------------------------------------------------------


def _neighbor_masks(tree):
    nb = [0] * tree.n
    for u, v in tree.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


@cache
def _columns(k):
    """(cols, sizes) over the masks below 2^k: bit m of cols[v] is bit v of
    m, and bit m of sizes[s] is set iff m has s bits set."""
    cols, sizes = [], [1]
    for v in range(k):
        w = 1 << v
        cols = [c | c << w for c in cols] + [((1 << w) - 1) << w]
        sizes = [a | b << w for a, b in zip(sizes + [0], [0] + sizes)]
    return cols, sizes


def _ones(x):
    """The positions of x's set bits, ascending, found by a C-level scan."""
    return [m.start() for m in re.finditer("1", bin(x)[:1:-1])]


def _valid_chunks(tree, which, cap):
    """Yield (lo, ok), in ascending order and chunk by chunk of
    2^_CHUNK_BITS masks, where bit i of ok is set iff the subset mask
    lo + i (vertex v at bit v) satisfies the invariant's defining predicate,
    so that callers may keep only the hits they need, not all 2^n masks.

    The predicate is bool algebra on the masks' bit columns: each low bit's
    column is the same cached int in every chunk, and a higher bit is all
    ones or 0 over a chunk."""
    _check_defined(tree.n, which)
    n = tree.n
    if n > cap:
        raise TooLargeError(f"subset enumeration capped at {cap} vertices, got {n}")
    k = min(n, _CHUNK_BITS)
    low, size = _columns(k)[0], 1 << k
    full = (1 << size) - 1
    for lo in range(0, 1 << n, size):
        cols = low + [full if lo >> v & 1 else 0 for v in range(k, n)]
        if which == "beta":
            bad = 0
            for u, v in tree.edges:
                bad |= cols[u] & cols[v]
            ok = full ^ bad
        else:
            ok = full
            for v in range(n):
                ok &= reduce(or_, [cols[w] for w in tree.adj[v]])
        if which == "tcoi":
            for u, v in tree.edges:
                ok &= cols[u] | cols[v]
            if lo + size == 1 << n:
                ok &= full >> 1  # the full mask leaves no vertex out
        yield lo, ok


def _valid_masks(tree, which, cap):
    return [lo + i for lo, ok in _valid_chunks(tree, which, cap) for i in _ones(ok)]


def _mask_sets(masks):
    return [frozenset(_ones(m)) for m in masks]


def _optimal_masks(tree, which, cap):
    """The optimal sets' masks, ascending: each chunk keeps only its hits of
    the best size so far, and a later chunk with a better size drops them."""
    sizes = _columns(min(tree.n, _CHUNK_BITS))[1]
    maximize = which == "beta"
    classes = range(len(sizes) - 1, -1, -1) if maximize else range(len(sizes))
    best, kept = None, []
    for lo, ok in _valid_chunks(tree, which, cap):
        if not ok:
            continue
        s = next(s for s in classes if ok & sizes[s])
        size = s + lo.bit_count()
        if best is None or (size > best if maximize else size < best):
            best, kept = size, []
        if size == best:
            kept += [lo + i for i in _ones(ok & sizes[s])]
    if best is None:
        raise UndefinedInvariantError(f"no feasible set exists for {which}")
    return kept


def _optimal_sets(tree, which, cap):
    return sorted(_mask_sets(_optimal_masks(tree, which, cap)), key=sorted)


def brute_force(tree, which):
    """Exact optimum by checking the defining predicate on every subset.

    Independent of the dynamic programs; this is the oracle the DP results
    are validated against.  The witness is the lexicographically smallest
    optimal set, as for the DP.  Capped at BRUTE_FORCE_CAP vertices.
    """
    best = _optimal_sets(tree, which, BRUTE_FORCE_CAP)[0]
    return len(best), best


def optimal_sets(tree, which):
    """Every optimal set for the invariant, as sorted frozensets (capped at
    SUBSET_CAP vertices)."""
    return _optimal_sets(tree, which, SUBSET_CAP)


def all_tcoi_sets(tree):
    """Every total co-independent dominating set of the tree (any size;
    capped at SUBSET_CAP vertices)."""
    return _mask_sets(_valid_masks(tree, "tcoi", SUBSET_CAP))


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """The three invariants of one tree with witness sets.

    gamma_t is None on the single-vertex tree; tcoi is None whenever the
    tree has at most 2 vertices.
    """

    n: int
    beta: int
    beta_witness: VertexSet
    gamma_t: int | None
    gamma_t_witness: VertexSet | None
    tcoi: int | None
    tcoi_witness: VertexSet | None

    def to_json_dict(self):
        def lst(s):
            return None if s is None else sorted(s)

        return {
            "n": self.n,
            "beta": self.beta,
            "gamma_t": self.gamma_t,
            "tcoi": self.tcoi,
            "beta_witness": lst(self.beta_witness),
            "gamma_t_witness": lst(self.gamma_t_witness),
            "tcoi_witness": lst(self.tcoi_witness),
        }


def invariant_report(tree):
    beta, bw = independence_number(tree)
    gt = gw = tc = tw = None
    if tree.n >= 2:
        gt, gw = total_domination_number(tree)
    if tree.n >= 3:
        tc, tw = tcoi_number(tree)
    return InvariantReport(
        n=tree.n,
        beta=beta,
        beta_witness=bw,
        gamma_t=gt,
        gamma_t_witness=gw,
        tcoi=tc,
        tcoi_witness=tw,
    )
