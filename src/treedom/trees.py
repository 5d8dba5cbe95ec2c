"""Immutable trees on dense 0-based vertices, parsing, and canonical forms.

A tree is stored as a frozen vertex count plus a normalized edge tuple;
adjacency lists are derived once at construction.  All functions here are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import isqrt

from .errors import (
    EmptyInputError,
    NotATreeError,
    ParseError,
    TooLargeError,
    VertexOutOfRangeError,
)

VertexSet = frozenset


@dataclass(frozen=True)
class Tree:
    """Simple undirected tree on vertices 0..n-1.

    Edges are normalized to sorted (u, v) pairs with u < v and stored in
    ascending order; ``adj[v]`` is the sorted neighbor tuple of ``v``.
    Construction validates the tree property (n-1 edges, connected, no
    loops or duplicates) and raises NotATreeError otherwise; only the
    package's own builders skip the per-edge checks, through ``_trusted``.
    The breadth-first search that checks connectivity is kept: ``order`` lists
    the vertices in BFS order from vertex 0, and ``parent[v]`` is v's
    neighbor one step closer to 0 (-1 for vertex 0).  Every vertex comes
    after its parent in ``order``, so a walk of ``order`` in reverse visits
    each vertex after all of its children.
    """

    n: int
    edges: tuple = ()
    adj: tuple = field(init=False, repr=False, compare=False)
    order: tuple = field(init=False, repr=False, compare=False)
    parent: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, *, trusted=False):
        if self.n < 1:
            raise NotATreeError("a tree has at least one vertex")
        if not trusted:
            norm = []
            seen = set()
            for e in self.edges:
                u, v = e
                if u == v:
                    raise NotATreeError(f"self-loop at vertex {u}")
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise NotATreeError(f"edge ({u}, {v}) out of range for n={self.n}")
                if u > v:
                    u, v = v, u
                if (u, v) in seen:
                    raise NotATreeError(f"duplicate edge ({u}, {v})")
                seen.add((u, v))
                norm.append((u, v))
            norm.sort()
            object.__setattr__(self, "edges", tuple(norm))
        if len(self.edges) != self.n - 1:
            raise NotATreeError(
                f"tree on {self.n} vertices needs {self.n - 1} edges, got {len(self.edges)}"
            )
        # the edges are sorted, so each neighbor list comes out sorted
        nbr = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        object.__setattr__(self, "adj", tuple(map(tuple, nbr)))
        # connectivity: n-1 edges + connected == acyclic
        order, parent, _ = _bfs(self.adj, 0)
        if len(order) != self.n:
            raise NotATreeError("graph is disconnected")
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "parent", tuple(parent))

    @classmethod
    def _trusted(cls, n, edges):
        """Tree from the edges of a forest on 0..n-1 that an internal builder
        made, each as (u, v) with u < v.

        Skips the per-edge range, self-loop and duplicate checks that
        ``Tree(n, edges)`` makes on outside input; still raises
        NotATreeError if the forest is disconnected.
        """
        tree = object.__new__(cls)
        object.__setattr__(tree, "n", n)
        object.__setattr__(tree, "edges", tuple(sorted(edges)))
        tree.__post_init__(trusted=True)
        return tree

    def degree(self, v):
        self._check_vertex(v)
        return len(self.adj[v])

    def _check_vertex(self, v):
        if not (0 <= v < self.n):
            raise VertexOutOfRangeError(f"vertex {v} not in 0..{self.n - 1}")

    def relabeled(self, mapping):
        """Return the tree with vertex v renamed to mapping[v] (a bijection)."""
        return Tree(self.n, tuple((mapping[u], mapping[v]) for u, v in self.edges))

    def without(self, removed):
        """Delete the given vertices and relabel the survivors densely.

        Returns (subtree, old_to_new). Raises NotATreeError if the remainder
        is not a tree.
        """
        removed = set(removed)
        for v in removed:
            self._check_vertex(v)
        survivors = [v for v in range(self.n) if v not in removed]
        if not survivors:
            raise NotATreeError("cannot remove every vertex")
        old_to_new = {v: i for i, v in enumerate(survivors)}
        # old_to_new is increasing, so the kept edges stay normalized
        kept = [
            (old_to_new[u], old_to_new[v])
            for u, v in self.edges
            if u not in removed and v not in removed
        ]
        return Tree._trusted(len(survivors), kept), old_to_new

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_edge_list(text):
    """Parse whitespace-separated "u v" lines into a Tree.

    Lines starting with '#' and blank lines are ignored.  Vertex ids must be
    dense 0..n-1 (a gap shows up as a disconnected vertex and is rejected).
    Input must be ASCII and ids plain digit strings: int() would otherwise
    read other scripts' digits, signs and underscores.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise ParseError(f"line {lineno}: non-ASCII character in {raw!r}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        if not (parts[0].isdigit() and parts[1].isdigit()):
            raise ParseError(f"line {lineno}: non-integer vertex id in {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise EmptyInputError("no edges in input")
    return Tree(max(max(e) for e in edges) + 1, tuple(edges))


def serialize_edge_list(tree):
    """Inverse of parse_edge_list (single-vertex trees have no edge lines)."""
    return "".join(f"{u} {v}\n" for u, v in tree.edges)


_G6_HEADER = ">>graph6<<"
# a graph6 character is 63 plus a sextet of the adjacency bits
_G6_CHARS = bytes(range(63, 127))
_G6_DECODE = bytes.maketrans(_G6_CHARS, bytes(range(64)))
_G6_ENCODE = bytes.maketrans(bytes(range(64)), _G6_CHARS)

# graph6 holds the whole adjacency matrix, n(n - 1)/12 bytes (1.4 MB at
# this order); reading and writing follow the edges, so it caps only size
GRAPH6_MAX_N = 4096


def parse_graph6(text):
    """Decode a graph6 string (optionally with the standard header) to a Tree.

    The body's set bits are counted first, so a body whose count is not
    n - 1 is rejected before any edge is decoded; bit i of the upper
    triangle, in column order, is edge (i - c(c-1)/2, c) for the column c
    with c(c-1)/2 <= i < c(c+1)/2.
    """
    if isinstance(text, bytes):
        text = text.decode("latin-1")  # one character per byte, never fails
    if not text.isascii():
        raise ParseError("graph6 input contains a non-ASCII character")
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 string")
    if s.encode("ascii").translate(None, _G6_CHARS):
        raise ParseError("graph6 character out of range")
    head = [ord(c) - 63 for c in s[:8]]
    if head[0] <= 62:
        n, k = head[0], 1
    elif len(head) >= 4 and head[1] <= 62:
        n, k = (head[1] << 12) | (head[2] << 6) | head[3], 4
    elif len(head) == 8:
        n, k = 0, 8
        for d in head[2:]:
            n = (n << 6) | d
    else:
        raise ParseError("truncated graph6 size field")
    if n == 0:
        raise NotATreeError("graph6 encodes the empty graph")
    body = s[k:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ParseError("graph6 body has the wrong length")
    # the last sextet's low 6 * len(body) - nbits bits are padding
    bits = int.from_bytes(body.encode("ascii").translate(_G6_DECODE), "big")
    m = (bits >> (6 * len(body) - nbits)).bit_count()
    if m != n - 1:
        raise NotATreeError(f"tree on {n} vertices needs {n - 1} edges, got {m}")
    edges = []
    for ch in re.finditer("[^?]", body):
        d, i0 = ord(ch.group()) - 63, 6 * ch.start()
        for i in range(i0, min(i0 + 6, nbits)):
            if d >> (i0 + 5 - i) & 1:
                col = (1 + isqrt(8 * i + 1)) // 2
                edges.append((i - col * (col - 1) // 2, col))
    return Tree(n, tuple(edges))


def serialize_graph6(tree):
    """Encode a tree as a graph6 string (no header, no trailing newline).

    Raises TooLargeError above GRAPH6_MAX_N vertices.
    """
    n = tree.n
    if n > GRAPH6_MAX_N:
        raise TooLargeError(
            f"graph6 output is capped at {GRAPH6_MAX_N} vertices, got {n}; "
            "use --to edgelist"
        )
    # GRAPH6_MAX_N is below 258048, so the 8-byte size field is never needed
    out = bytearray([n] if n <= 62 else [63, (n >> 12) & 63, (n >> 6) & 63, n & 63])
    k = len(out)
    out += bytes((n * (n - 1) // 2 + 5) // 6)
    for u, v in tree.edges:
        i = v * (v - 1) // 2 + u
        out[k + i // 6] |= 32 >> (i % 6)
    return out.translate(_G6_ENCODE).decode("ascii")


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _bfs(adj, root):
    """(order, parent, dist): the vertices in BFS order from root, each
    vertex's BFS parent and its edge-count distance from root (parent -1
    at the root; both -1 for a vertex not reached)."""
    parent = [-1] * len(adj)
    dist = [-1] * len(adj)
    dist[root] = 0
    order = [root]
    for u in order:
        d = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                parent[w] = u
                dist[w] = d
                order.append(w)
    return order, parent, dist


def bfs_distances(tree, src):
    """Edge-count distances from src to every vertex."""
    tree._check_vertex(src)
    return _bfs(tree.adj, src)[2]


def distance(tree, u, v):
    """Length of the unique u-v path."""
    tree._check_vertex(v)
    return bfs_distances(tree, u)[v]


def distance_matrix(tree):
    return [_bfs(tree.adj, v)[2] for v in range(tree.n)]


def diameter(tree):
    """Largest distance between any two vertices: the eccentricity of the
    last vertex in BFS order from 0, which ends a longest path."""
    order, _, dist = _bfs(tree.adj, tree.order[-1])
    return dist[order[-1]]


def center(tree):
    """The 1 or 2 middle vertices of a longest path."""
    return _center(tree.adj, tree.order[-1])


def _center(adj, end):
    """center of the tree in adj that holds end, which must end a longest
    path of it (the last vertex of any BFS of it does)."""
    order, parent, _ = _bfs(adj, end)
    path = [order[-1]]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    d = len(path) - 1
    return tuple(sorted(path[d // 2:(d + 1) // 2 + 1]))


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Vertex classes and diameter of a tree.

    leaves: degree-1 vertices (the single vertex of K_1 counts as a leaf).
    supports: non-leaves adjacent to a leaf.
    semi_supports: vertices outside leaves and supports adjacent to a support.
    isolated_supports: supports with no support neighbor.
    """

    leaves: VertexSet
    supports: VertexSet
    semi_supports: VertexSet
    isolated_supports: VertexSet
    diameter: int


def _vertex_classes(adj):
    """(leaves, supports, semi_supports) as StructureReport defines them, of
    the tree with neighbor lists adj, without the diameter BFS: new mutable
    sets, which the certificate peel keeps and updates."""
    n = len(adj)
    leaves = {v for v in range(n) if len(adj[v]) <= 1}
    supports = {v for v in range(n) if v not in leaves and not leaves.isdisjoint(adj[v])}
    semi = {
        v
        for v in range(n)
        if v not in leaves and v not in supports and not supports.isdisjoint(adj[v])
    }
    return leaves, supports, semi


def structure(tree):
    leaves, supports, semi = _vertex_classes(tree.adj)
    return StructureReport(
        leaves=frozenset(leaves),
        supports=frozenset(supports),
        semi_supports=frozenset(semi),
        isolated_supports=frozenset(v for v in supports if supports.isdisjoint(tree.adj[v])),
        diameter=diameter(tree),
    )


# ---------------------------------------------------------------------------
# Canonical form (AHU encoding rooted at the center)
# ---------------------------------------------------------------------------


def _level_code(seq, bicentral):
    """Canonical code of the tree whose preorder, rooted at its center,
    has vertex i at depth seq[i] (when bicentral, the other center is
    vertex 1, and the smaller of the two center-rooted codes is taken).

    A vertex's code is "(" + its children's codes, sorted, + ")"; stack[d]
    collects the codes of the open depth-d vertex's finished children.
    """
    if len(seq) == 1:
        return b"()"
    root, first = [], []
    stack = [root, first]
    for d in seq[2:] + [1]:  # a last vertex at depth 1 closes the rest
        while len(stack) > d:
            kids = stack.pop()
            kids.sort()
            stack[-1].append(b"(" + b"".join(kids) + b")")
        stack.append([])
    root.sort()
    return _center_code(root, first if bicentral else None)


def _center_code(kids, other=None):
    """AHU code of a rooted tree from its root's sorted child codes kids.
    When the root is one center of a bicentral tree, other is the other
    center's sorted child codes (that center is a child), and the smaller
    of the two center-rooted codes is taken."""
    code = b"(" + b"".join(kids) + b")"
    if other is None:
        return code
    rest = list(kids)
    rest.remove(_center_code(other))
    return min(code, _center_code(sorted(other + [_center_code(rest)])))


def _center_levels(adj, end):
    """(seq, bicentral): the level sequence of a preorder of the tree in adj
    that holds end (see _center), rooted at its center, as _level_code
    takes it.  No walk leaves that tree, so adj may also hold vertices with
    no neighbors, such as those a certificate peel has removed."""
    c = _center(adj, end)
    root, first = c[0], c[-1]
    seq = [0]
    # the stack pops the other center first, so it becomes vertex 1
    stack = [(w, root, 1) for w in adj[root] if w != first]
    if first != root:
        stack.append((first, root, 1))
    while stack:
        v, p, d = stack.pop()
        seq.append(d)
        for w in adj[v]:
            if w != p:
                stack.append((w, v, d + 1))
    return seq, len(c) == 2


def canonical_code(tree):
    """Byte string identifying the isomorphism class of the tree.

    The tree is rooted at its center; a bicentral tree takes the
    lexicographically smaller of its two center-rooted encodings.
    """
    return _level_code(*_center_levels(tree.adj, tree.order[-1]))


def is_isomorphic(t1, t2):
    if t1.n != t2.n:
        return False
    return canonical_code(t1) == canonical_code(t2)
