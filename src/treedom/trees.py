"""Immutable trees on dense 0-based vertices, parsing, and canonical forms.

A tree is stored as a frozen vertex count plus a normalized edge tuple;
adjacency lists are derived once at construction.  All functions here are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    EmptyInputError,
    NotATreeError,
    ParseError,
    TooLargeError,
    VertexOutOfRangeError,
)

# A canonical code is an opaque byte string: two trees are isomorphic
# exactly when their codes compare equal.
CanonicalCode = bytes

VertexSet = frozenset


@dataclass(frozen=True)
class Tree:
    """Simple undirected tree on vertices 0..n-1.

    Edges are normalized to sorted (u, v) pairs with u < v and stored in
    ascending order; ``adj[v]`` is the sorted neighbor tuple of ``v``.
    Construction validates the tree property (n-1 edges, connected, no
    loops or duplicates) and raises NotATreeError otherwise.
    """

    n: int
    edges: tuple = ()
    adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise NotATreeError("a tree has at least one vertex")
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
        if len(norm) != self.n - 1:
            raise NotATreeError(
                f"tree on {self.n} vertices needs {self.n - 1} edges, got {len(norm)}"
            )
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))
        nbr = [[] for _ in range(self.n)]
        for u, v in norm:
            nbr[u].append(v)
            nbr[v].append(u)
        object.__setattr__(self, "adj", tuple(tuple(sorted(a)) for a in nbr))
        # connectivity: n-1 edges + connected == acyclic
        if self.n > 1:
            seen_v = {0}
            stack = [0]
            while stack:
                for w in self.adj[stack.pop()]:
                    if w not in seen_v:
                        seen_v.add(w)
                        stack.append(w)
            if len(seen_v) != self.n:
                raise NotATreeError("graph is disconnected")

    @classmethod
    def from_edges(cls, edges, n=None):
        """Build a tree from an edge iterable; n defaults to max label + 1."""
        edges = [tuple(e) for e in edges]
        if n is None:
            if not edges:
                raise EmptyInputError("no edges given and no vertex count")
            n = max(max(e) for e in edges) + 1
        return cls(n, tuple(edges))

    def neighbors(self, v):
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v):
        self._check_vertex(v)
        return len(self.adj[v])

    def vertices(self):
        return range(self.n)

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
        kept = [
            (old_to_new[u], old_to_new[v])
            for u, v in self.edges
            if u not in removed and v not in removed
        ]
        return Tree(len(survivors), tuple(kept)), old_to_new

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_edge_list(text):
    """Parse whitespace-separated "u v" lines into a Tree.

    Lines starting with '#' and blank lines are ignored.  Vertex ids must be
    dense 0..n-1 (a gap shows up as a disconnected vertex and is rejected).
    Input must be ASCII: int() would otherwise read other scripts' digits.
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
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
    if not edges:
        raise EmptyInputError("no edges in input")
    return Tree.from_edges(edges)


def serialize_edge_list(tree):
    """Inverse of parse_edge_list (single-vertex trees have no edge lines)."""
    return "".join(f"{u} {v}\n" for u, v in tree.edges)


_G6_HEADER = ">>graph6<<"

# graph6 stores the whole adjacency matrix, so writing it is O(n^2): 2.5 s
# at this order under CPython 3.11 on a 2-core machine.
GRAPH6_MAX_N = 4096


def parse_graph6(text):
    """Decode a graph6 string (optionally with the standard header) to a Tree."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")  # one character per byte, never fails
    if not text.isascii():
        raise ParseError("graph6 input contains a non-ASCII character")
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ParseError("graph6 character out of range")
    if data[0] <= 62:
        n, data = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    elif len(data) >= 8:
        n = 0
        for d in data[2:8]:
            n = (n << 6) | d
        data = data[8:]
    else:
        raise ParseError("truncated graph6 size field")
    if n == 0:
        raise NotATreeError("graph6 encodes the empty graph")
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise ParseError("graph6 body has the wrong length")
    bits = []
    for d in data:
        bits.extend((d >> k) & 1 for k in range(5, -1, -1))
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
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
    if n <= 62:
        prefix = [n]
    elif n <= 258047:
        prefix = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        prefix = [63, 63] + [(n >> k) & 63 for k in range(30, -1, -6)]
    present = set(tree.edges)
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if (row, col) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        body.append(x)
    return "".join(chr(63 + x) for x in prefix + body)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def bfs_distances(tree, src):
    """Edge-count distances from src to every vertex."""
    tree._check_vertex(src)
    dist = [-1] * tree.n
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for w in tree.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def distance(tree, u, v):
    """Length of the unique u-v path."""
    tree._check_vertex(v)
    return bfs_distances(tree, u)[v]


def distance_matrix(tree):
    return [bfs_distances(tree, v) for v in range(tree.n)]


def diameter(tree):
    """Largest distance between any two vertices, by double BFS."""
    if tree.n == 1:
        return 0
    d0 = bfs_distances(tree, 0)
    far = max(range(tree.n), key=lambda v: d0[v])
    return max(bfs_distances(tree, far))


def center(tree):
    """The 1 or 2 middle vertices, found by repeatedly stripping leaves."""
    if tree.n <= 2:
        return tuple(range(tree.n))
    deg = [len(a) for a in tree.adj]
    alive = tree.n
    layer = [v for v in range(tree.n) if deg[v] == 1]
    while alive > 2:
        alive -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in tree.adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Vertex classes and degree/diameter summary of a tree.

    leaves: degree-1 vertices (the single vertex of K_1 counts as a leaf).
    supports: non-leaves adjacent to a leaf.
    semi_supports: vertices outside leaves and supports adjacent to a support.
    isolated_supports: supports with no support neighbor.
    """

    leaves: VertexSet
    supports: VertexSet
    semi_supports: VertexSet
    isolated_supports: VertexSet
    min_degree: int
    max_degree: int
    diameter: int


def structure(tree):
    degs = [len(a) for a in tree.adj]
    leaves = frozenset(v for v in range(tree.n) if degs[v] <= 1)
    supports = frozenset(
        v
        for v in range(tree.n)
        if v not in leaves and any(w in leaves for w in tree.adj[v])
    )
    semi = frozenset(
        v
        for v in range(tree.n)
        if v not in leaves
        and v not in supports
        and any(w in supports for w in tree.adj[v])
    )
    isolated = frozenset(
        v for v in supports if not any(w in supports for w in tree.adj[v])
    )
    return StructureReport(
        leaves=leaves,
        supports=supports,
        semi_supports=semi,
        isolated_supports=isolated,
        min_degree=min(degs),
        max_degree=max(degs),
        diameter=diameter(tree),
    )


# ---------------------------------------------------------------------------
# Canonical form (AHU encoding rooted at the center)
# ---------------------------------------------------------------------------


def _rooted_code(tree, root):
    # children order via BFS parents; codes built leaves-first
    parent = [-2] * tree.n
    parent[root] = -1
    order = [root]
    for u in order:
        for w in tree.adj[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
    code = [b""] * tree.n
    for u in reversed(order):
        kids = sorted(code[w] for w in tree.adj[u] if parent[w] == u)
        code[u] = b"(" + b"".join(kids) + b")"
    return code[root]


def canonical_code(tree):
    """Byte string identifying the isomorphism class of the tree.

    The tree is rooted at its center; a bicentral tree takes the
    lexicographically smaller of its two center-rooted encodings.
    """
    c = center(tree)
    if len(c) == 1:
        return _rooted_code(tree, c[0])
    return min(_rooted_code(tree, c[0]), _rooted_code(tree, c[1]))


def is_isomorphic(t1, t2):
    if t1.n != t2.n:
        return False
    return canonical_code(t1) == canonical_code(t2)
