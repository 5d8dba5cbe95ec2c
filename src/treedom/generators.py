"""Constructors for named tree families and the four attachment operations.

All builders use a documented deterministic labeling so generated trees are
byte-stable across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BadParameterError,
    BadSpecError,
    PreconditionViolatedError,
    VertexOutOfRangeError,
)
from .solvers import in_some_optimal_set
from .trees import Tree


def path(n):
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise BadParameterError("path needs n >= 1")
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(n):
    """Star on n vertices with center 0."""
    if n < 1:
        raise BadParameterError("star needs n >= 1")
    return Tree(n, tuple((0, i) for i in range(1, n)))


def double_star(a, b):
    """Adjacent centers 0 and 1 carrying a and b leaves respectively."""
    if a < 1 or b < 1:
        raise BadParameterError("double_star needs a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Tree(a + b + 2, tuple(edges))


def comb(k):
    """Spine 0..k-1 with leaf k+i pendant on spine vertex i."""
    if k < 1:
        raise BadParameterError("comb needs k >= 1")
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return Tree(2 * k, tuple(edges))


def spider(leg_lengths):
    """Center 0 with one path per leg length, labeled leg by leg."""
    legs = list(leg_lengths)
    if any(l < 1 for l in legs):
        raise BadParameterError("spider legs must have length >= 1")
    edges = []
    nxt = 1
    for l in legs:
        prev = 0
        for _ in range(l):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(nxt, tuple(edges))


def q_tree(r):
    """Caterpillar on 2r+3 vertices: spine 0..r+1 with one pendant leaf on
    every spine vertex except vertex 0.

    Vertex 0 is the only spine leaf; spine vertex j (1 <= j <= r+1) carries
    the pendant labeled r+1+j.
    """
    if r < 2:
        raise BadParameterError("q_tree needs r >= 2")
    edges = [(j, j + 1) for j in range(r + 1)]
    edges += [(j, r + 1 + j) for j in range(1, r + 2)]
    return Tree(2 * r + 3, tuple(edges))


@dataclass(frozen=True)
class FamilyFSpec:
    """Recipe for a gap-realizing tree: a base tree whose vertices are
    partitioned into b star-gadget hosts (u_vertices) and d subdivided-star
    hosts (v_vertices)."""

    base: Tree
    u_vertices: frozenset
    v_vertices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "u_vertices", frozenset(self.u_vertices))
        object.__setattr__(self, "v_vertices", frozenset(self.v_vertices))
        all_v = set(range(self.base.n))
        if self.u_vertices & self.v_vertices:
            raise BadSpecError("u and v vertex sets overlap")
        if self.u_vertices | self.v_vertices != all_v:
            raise BadSpecError("u and v vertex sets must partition the base tree")
        if not self.u_vertices or not self.v_vertices:
            raise BadSpecError("need at least one u vertex and one v vertex")


def family_f(spec):
    """Build the gap tree for a FamilyFSpec.

    Starting from the base tree (labels preserved): every base vertex gets
    two pendant leaves; every u vertex gets a 4-vertex star attached through
    one of its leaves; every v vertex gets a 5-vertex star with one
    subdivided edge, attached through the far end of the subdivided edge.
    New vertices are labeled in that order (pendants by base vertex, then
    u gadgets ascending, then v gadgets ascending).
    """
    base = spec.base
    edges = list(base.edges)
    nxt = base.n
    for w in range(base.n):
        edges += [(w, nxt), (w, nxt + 1)]
        nxt += 2
    for u in sorted(spec.u_vertices):
        join, ctr, l2, l3 = nxt, nxt + 1, nxt + 2, nxt + 3
        edges += [(u, join), (join, ctr), (ctr, l2), (ctr, l3)]
        nxt += 4
    for v in sorted(spec.v_vertices):
        join, mid, ctr, l2, l3 = nxt, nxt + 1, nxt + 2, nxt + 3, nxt + 4
        edges += [(v, join), (join, mid), (mid, ctr), (ctr, l2), (ctr, l3)]
        nxt += 5
    return Tree(nxt, tuple(edges))


# ---------------------------------------------------------------------------
# Attachment operations
# ---------------------------------------------------------------------------

OP_KINDS = ("O1", "O2", "O3", "O4")

# vertices each operation adds
OP_SIZES = {"O1": 1, "O2": 2, "O3": 4, "O4": 4}

# invariant whose optimal sets must contain the attachment vertex
OP_PRECONDITION = {"O1": "tcoi", "O2": "tcoi", "O3": "tcoi", "O4": "beta"}

# the parent of each new vertex n, n+1, ... (role order) as an offset from
# n, or -1 for the attachment vertex: O4's path h1-u1-u2-h2 hangs by u1
_PIECES = {"O1": (-1,), "O2": (-1, 0), "O3": (-1, 0, 1, 2), "O4": (1, -1, 1, 2)}

# the new vertices' offsets, the one below the attachment vertex first and
# then the rest, each below an earlier one
_PIECE_ORDER = {k: sorted(range(len(p)), key=lambda i: p[i] >= 0) for k, p in _PIECES.items()}


@dataclass(frozen=True)
class OperationStep:
    """One attachment: the operation kind, the attachment vertex in the
    pre-operation tree, and optionally the labels assigned to the added
    vertices (must be the next unused integers, in role order)."""

    op_kind: str
    attach_vertex: int
    new_vertex_labels: tuple = None

    def __post_init__(self):
        if self.op_kind not in OP_KINDS:
            raise BadParameterError(f"unknown operation kind {self.op_kind!r}")
        if self.new_vertex_labels is not None:
            object.__setattr__(
                self, "new_vertex_labels", tuple(self.new_vertex_labels)
            )


def apply_operation(tree, step):
    """Apply one attachment operation, returning the enlarged tree.

    O1 adds a single pendant vertex; O2 a pendant 2-path; O3 a pendant
    4-path joined through its end vertex; O4 a 4-path joined through one of
    its two inner vertices.  The attachment vertex must lie in some optimal
    set of the governing invariant (minimum total co-independent dominating
    set for O1-O3, maximum independent set for O4); otherwise
    PreconditionViolatedError is raised.  New vertices are labeled n,
    n+1, ... in role order.
    """
    edges = list(tree.edges)
    _attach(list(tree.parent), edges, step, lambda v, which: in_some_optimal_set(tree, v, which))
    return Tree._trusted(len(edges) + 1, edges)


def _attach(parent, edges, step, member):
    """Apply one step in place to the tree on 0..n-1 given by its edge list
    and its parent list (see solvers), with n = len(parent), and return the
    new vertices, each after its parent.

    Checks the attachment vertex's range, the new labels and the
    precondition, member(v, which) (in_some_optimal_set on the tree before
    the step), then appends the new vertices' edges and parents.
    """
    n = len(parent)
    v = step.attach_vertex
    if not 0 <= v < n:
        raise VertexOutOfRangeError(f"vertex {v} not in 0..{n - 1}")
    k = OP_SIZES[step.op_kind]
    expected = tuple(range(n, n + k))
    if step.new_vertex_labels is not None and step.new_vertex_labels != expected:
        raise BadParameterError(
            f"new vertices of {step.op_kind} on a tree of order {n} "
            f"must be labeled {expected}, got {step.new_vertex_labels}"
        )
    which = OP_PRECONDITION[step.op_kind]
    if not member(v, which):
        raise PreconditionViolatedError(
            f"{step.op_kind} at vertex {v}: vertex lies in no optimal "
            f"{'independent' if which == 'beta' else 'total co-independent dominating'} set"
        )
    parents = [v if i < 0 else n + i for i in _PIECES[step.op_kind]]
    edges.extend((p, x) if p < x else (x, p) for x, p in enumerate(parents, n))
    parent.extend(parents)
    return [n + i for i in _PIECE_ORDER[step.op_kind]]


# ---------------------------------------------------------------------------
# Random trees
# ---------------------------------------------------------------------------


def prufer_decode(seq, n=None):
    """Labeled tree on n vertices from a Prufer sequence of length n-2."""
    seq = list(seq)
    if n is None:
        n = len(seq) + 2
    if n < 1:
        raise BadParameterError("need n >= 1")
    if n <= 2:
        if seq:
            raise BadParameterError("sequence must be empty for n <= 2")
        return path(n)
    if len(seq) != n - 2 or any(not 0 <= x < n for x in seq):
        raise BadParameterError("sequence entries must be vertices, length n-2")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, tuple(edges))


def random_tree(n, seed):
    """Uniform random labeled tree, deterministic for a fixed seed."""
    if n < 1:
        raise BadParameterError("random_tree needs n >= 1")
    rng = random.Random(seed)
    return prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
