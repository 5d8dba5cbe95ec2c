"""Membership tests for the two extremal families and operation certificates.

A tree of diameter >= 3 attains the lower bound when its total
co-independent domination number equals n minus the independence number,
and the upper bound when it equals n minus the number of leaves.  The lower
family is exactly the trees reachable from P_4 by the operations O1-O4 at
vertices in suitable optimal sets.  decompose_to_p4 finds such a sequence
by the proof's case analysis, peeling one configuration at a time down to
P_4 on one mutable state (_Peel) in the input's labels: adjacency sets,
vertex classes (if the rest's end of a removed edge keeps its class, no
vertex changes class, and only otherwise are the classes within distance
2 of it recomputed), the input's rooting with each subtree's far end, and
lazy heaps of the candidate moves, so a peel runs no BFS and no pass over
the tree.  The one-link O2 check and the forward replay shared with
verify_certificate, the only check of the steps, ask DP questions by
walks up from a vertex (solvers._Membership) on the tree the peel cuts or
the replay grows as lists; the replay's edges must be the input's under
the peels' relabeling, so no Tree is built.  A member on which no move
applies, or whose certificate does not replay, is a defect in the moves
and raises InternalError (no tree of order <= 18 does).
structural_upper_bound_check tests the upper family's condition as the
paper states it, which is necessary but not sufficient, and
upper_family_check the corrected, exact one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

from .errors import (
    BadParameterError,
    CertificateMismatchError,
    InternalError,
    InvalidStepError,
    NotATreeError,
    TreedomError,
    UndefinedInvariantError,
)
from .generators import OP_KINDS, OP_SIZES, OperationStep, _attach, apply_operation, path
from .solvers import _Membership, _unit_value, invariant_value
from .trees import Tree, _vertex_classes, canonical_code, structure


def _require_diameter(tree):
    # diameter >= 3 iff two vertices have degree >= 2: the path between two
    # such vertices extends past both ends, and a tree of diameter <= 2 is a star
    if sum(len(a) > 1 for a in tree.adj) < 2:
        raise UndefinedInvariantError(
            "extremal family membership is defined only for trees of diameter >= 3"
        )


def attains_lower_bound(tree):
    """True iff the total co-independent domination number equals n - beta."""
    _require_diameter(tree)
    tcoi = _unit_value(tree.order, tree.parent, "tcoi")
    return tcoi == tree.n - _unit_value(tree.order, tree.parent, "beta")


def attains_upper_bound(tree):
    """True iff the total co-independent domination number equals n - #leaves."""
    _require_diameter(tree)
    leaves = sum(len(a) <= 1 for a in tree.adj)
    return invariant_value(tree, "tcoi") == tree.n - leaves


def structural_upper_bound_check(tree):
    """The paper's stated structural condition for the upper family: every
    vertex is a leaf, support, or semi-support, and every semi-support has
    an isolated-support neighbor (a support with no support neighbor).

    Every tree attaining n - #leaves satisfies it, but the converse fails,
    first at order 9 (the 8-path with a pendant on a middle vertex), so it
    is necessary and not sufficient.  upper_family_check is the exact test.
    """
    _require_diameter(tree)
    rep = structure(tree)
    # the classes are disjoint, so they cover the tree iff their sizes add up
    if len(rep.leaves) + len(rep.supports) + len(rep.semi_supports) != tree.n:
        return False
    return all(not rep.isolated_supports.isdisjoint(tree.adj[v]) for v in rep.semi_supports)


def upper_family_check(tree):
    """Exact structural test for attains_upper_bound, in O(n): every vertex
    v that is neither a leaf nor a support has a neighbor u whose only
    non-leaf neighbor is v (such a u is a support, so v is a semi-support
    and u an isolated support of it).

    With L the leaves.  Necessity: if v fails, L + {v} is independent and
    its complement has no isolated vertex, so tcoi <= n - |L| - 1.
    Sufficiency: a support never lies in the complement I of a tcoi set D
    (its leaves would have no neighbor in D); map each non-leaf x in I to a
    leaf in D of x's private support u, which exists because u needs a
    D-neighbor other than x, and the map is injective because u determines
    x; so |I| <= |L| and tcoi >= n - |L|.
    """
    _require_diameter(tree)
    leaves, supports, _ = _vertex_classes(tree.adj)
    inner_degree = [
        sum(1 for w in tree.adj[u] if w not in leaves) for u in range(tree.n)
    ]
    return all(
        any(inner_degree[u] == 1 for u in tree.adj[v])
        for v in range(tree.n)
        if v not in leaves and v not in supports
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Operation sequence rebuilding a tree from P_4.

    Replaying the steps from the path 0-1-2-3 yields a tree whose canonical
    code is final_code; every step's attachment precondition holds in the
    intermediate tree it is applied to.
    """

    steps: tuple
    final_code: bytes
    # Always False: certificates come only from the proof moves, which have
    # no fallback.  Kept as a constant because bench/layers.py reads it.
    used_fallback = False


def certificate_to_text(cert):
    lines = ["base=P4"]
    for s in cert.steps:
        new = ",".join(str(x) for x in s.new_vertex_labels)
        lines.append(f"{s.op_kind} attach={s.attach_vertex} new={new}")
    lines.append(f"canon={cert.final_code.hex()}")
    return "\n".join(lines) + "\n"


_STEP_RE = re.compile(r"^(O[1-4]) attach=([0-9]+) new=([0-9]+(?:,[0-9]+)*)$")


def certificate_from_text(text):
    """Inverse of certificate_to_text.  Input must be ASCII, since int()
    reads other scripts' digits, and the canon= value hex digits alone,
    since bytes.fromhex skips spaces."""
    if not text.isascii():
        raise CertificateMismatchError("certificate contains a non-ASCII character")
    lines = [l.strip() for l in text.strip().splitlines() if l.strip()]
    if not lines or lines[0] != "base=P4":
        raise CertificateMismatchError("certificate must start with 'base=P4'")
    if not lines[-1].startswith("canon="):
        raise CertificateMismatchError("certificate must end with a canon= line")
    hex_code = lines[-1][len("canon="):]
    if not re.fullmatch("(?:[0-9a-fA-F]{2})*", hex_code):
        raise CertificateMismatchError(f"bad canon= value: {hex_code!r} is not hex bytes")
    final_code = bytes.fromhex(hex_code)
    steps = []
    for line in lines[1:-1]:
        m = _STEP_RE.match(line)
        if not m:
            raise CertificateMismatchError(f"bad certificate line: {line!r}")
        kind, attach, new = m.group(1), int(m.group(2)), m.group(3)
        steps.append(
            OperationStep(kind, attach, tuple(int(x) for x in new.split(",")))
        )
    return Certificate(steps=tuple(steps), final_code=final_code)


def _replay(steps):
    """Apply the steps from P_4 and return the result's edge list, each
    edge (u, v) with u < v; a step that cannot be applied raises
    InvalidStepError with its index.

    The tree grows as edge and parent lists (P_4 is 0-1-2-3 rooted at 0),
    each step hanging below its attachment vertex, and one _Membership on
    them answers every precondition by a walk up from that vertex, with no
    DP pass over the whole tree."""
    parent, edges = [-1, 0, 1, 2], [(0, 1), (1, 2), (2, 3)]
    sets = _Membership(parent, [0, 1, 2, 3])
    for i, step in enumerate(steps):
        try:
            sets.add(_attach(parent, edges, step, sets.member))
        except TreedomError as exc:
            raise InvalidStepError(i, str(exc)) from exc
    return edges


def verify_certificate(cert, target):
    """Replay a certificate from P_4 and compare against the target tree.

    Returns True; raises InvalidStepError if a step cannot be applied (with
    its index) and CertificateMismatchError if the replayed tree does not
    match the recorded code or the target's isomorphism class.
    """
    edges = _replay(cert.steps)
    code = canonical_code(Tree._trusted(len(edges) + 1, edges))
    if code != cert.final_code:
        raise CertificateMismatchError(
            "replayed tree does not match the certificate's recorded code"
        )
    if code != canonical_code(target):
        raise CertificateMismatchError("replayed tree is not isomorphic to the target")
    return True


# ---------------------------------------------------------------------------
# Decomposition to P_4
# ---------------------------------------------------------------------------


class _Peel:
    """The tree being peeled, in the input tree's labels: adjacency sets
    built from the input's rooting (one shared empty frozenset, gone, for
    every removed vertex; nothing mutates it), the number of vertices
    left, and the leaf, support and semi-support classes as
    StructureReport defines them.

    It keeps that rooting (order, and a copy of parent in which a
    vertex whose parent was removed has parent -1), down[w], the far end
    of w's subtree (_far_ends), lazy heaps that remove feeds: triples
    (_select_triple), ends (supports of degree 2), doubles (two leaves),
    and sets, a _Membership on the same parent list that remove cuts.
    """

    def __init__(self, order, parent):
        self.order, self.parent = order, list(parent)
        nbrs = [[] for _ in parent]
        for v in order[1:]:
            nbrs[v].append(parent[v])
            nbrs[parent[v]].append(v)
        adj = self.adj = [set(sorted(a)) for a in nbrs]  # filled as set(Tree.adj[v]) is
        self.n = len(adj)
        self.leaves, self.supports, self.semi = _vertex_classes(adj)
        self.ends = sorted(x for x in self.supports if len(adj[x]) == 2)
        self.doubles = sorted(x for x in self.supports if len(adj[x] & self.leaves) > 1)
        self.down = self.triples = self.sets = None
        self.gone = frozenset()

    def key_triples(self):
        """Set down and triples from one rerooting pass over what is left,
        at the first peel that needs them; remove keeps them from then on."""
        adj, parent = self.adj, self.parent
        self.down, up = _far_ends(adj, [x for x in self.order if adj[x]], parent)
        self.triples = []
        for h in self.leaves:
            (s,) = adj[h]
            for v in adj[s] & self.semi:
                d, h2 = self.down[v] if parent[v] == s else up[s]
                self.triples.append((d, h, h2, v))
        heapify(self.triples)

    def far_end(self, s, v):
        """The far end of the directed edge (s, v): down[v] for a child v,
        else the best of v's ancestors and their other children's down."""
        adj, parent, down = self.adj, self.parent, self.down
        if parent[v] == s:
            return down[v]
        best, k = (0, v), 0
        while True:
            p = parent[v]
            for c in adj[v] - {s, p}:
                best = min(best, (down[c][0] - k - 1, down[c][1]))
            if p < 0:
                return best
            s, v, k = v, p, k + 1
            best = min(best, (-k, v))

    def remove(self, piece):
        """Delete the piece, which must hang from the rest by exactly one
        edge a-b (so that both stay trees), else raise NotATreeError; then
        update parent, sets, down, the classes and the heaps near b.

        Only b's neighbor set changes, and it loses exactly a.  A vertex's
        leaf status depends on its own degree, its support status on its
        neighbors' leaf status, and its semi-support status on its
        neighbors' support status.  So if b keeps its leaf, support and
        semi-support status, no other vertex changes class: no triple
        starts, no support gains a second leaf, and the one heap update
        left is to push b onto ends when b is a support whose degree has
        dropped to 2.  Only when b's class changes are the classes within
        distance 2 of b recomputed."""
        adj, parent, down = self.adj, self.parent, self.down
        piece = set(piece)
        for x in piece:
            if not (0 <= x < len(adj) and adj[x]):
                raise NotATreeError(f"vertex {x} is not in the tree")
        links = [(x, w) for x in piece for w in adj[x] if w not in piece]
        if len(links) != 1:
            raise NotATreeError(
                f"removed piece hangs by {len(links)} edges, not exactly one"
            )
        ((a, b),) = links
        leaves, supports, semi = self.leaves, self.supports, self.semi
        for x in piece:
            adj[x] = self.gone
        for group in (leaves, supports, semi):
            group -= piece
        adj[b].discard(a)
        self.n -= len(piece)
        if parent[a] != b:
            parent[b] = -1
        elif self.sets:
            self.sets.cut(a)
        # a piece below b changes down on b and on ancestors until one holds
        w = b if down and parent[a] == b else -1
        while w >= 0:
            best = _subtree_end(adj, parent, down, w)
            if best == down[w]:
                break
            down[w] = best
            w = parent[w]
        # b's class, read off its neighbors' classes, which hold while its
        # leaf status does
        if len(adj[b]) <= 1:
            same = b in leaves
        elif not leaves.isdisjoint(adj[b]):
            same = b in supports
        else:
            same = b not in supports and (b in semi) != supports.isdisjoint(adj[b])
        if same:
            if len(adj[b]) == 2 and b in supports:
                heappush(self.ends, b)
            return
        # b's degree is the only one that changed: its leaf status can
        # change, hence the support status of b and its neighbors, hence
        # the semi-support status of everything within distance 2 of b
        if len(adj[b]) <= 1:
            leaves.add(b)
        near = adj[b] | {b}
        for x in near:
            if x not in leaves and any(w in leaves for w in adj[x]):
                supports.add(x)
                if len(adj[x]) == 2:
                    heappush(self.ends, x)
            else:
                supports.discard(x)
        zone = near.union(*(adj[y] for y in adj[b]))
        now = {x for x in zone - leaves - supports if not supports.isdisjoint(adj[x])}
        # a triple (h, s, v) starts only when its leaf or its semi-support
        # does, and a support gets a second leaf only when b becomes one
        starts = [(h, s, v) for v in now - semi
                  for s in adj[v] for h in adj[s] & leaves]
        semi.difference_update(zone)
        semi.update(now)
        if len(adj[b]) == 1:
            (s,) = adj[b]
            starts += [(b, s, v) for v in adj[s] & semi]
            if len(adj[s] & leaves) > 1:
                heappush(self.doubles, s)
        for h, s, v in starts if down else ():
            d, h2 = self.far_end(s, v)
            heappush(self.triples, (d, h, h2, v))


def _q_chain_move(state, v, s, h):
    """Peel for the caterpillar configuration hanging at semi-support v:
    follow the support chain from s and peel its far end (reverse O2), or,
    for a one-link chain whose O2 remainder leaves the lower family, peel
    the whole 4-vertex piece as a reverse O4.

    A member T minus a one-link s1 and its leaf h1 is a member iff some
    w in adj[s] - {h, s1} lies in a minimum tcoi set D of T.  In a member,
    D's complement is a maximum independent set, so D holds s and s1 but
    not h or h1, and beta drops by 1; D -> D - {s1} and D' -> D' + {s1}
    then match the two trees' minimum tcoi sets in which s has a neighbor
    other than s1."""
    adj, leaves, supports = state.adj, state.leaves, state.supports
    chain = [s]
    while nxt := [x for x in adj[chain[-1]] if x in supports and x not in chain[-2:]]:
        chain.append(min(nxt))
    # every support has a leaf
    sr, srm1 = chain[-1], chain[-2]
    hr = min(adj[sr] & leaves)
    if adj[sr] != {srm1, hr}:
        return None
    if len(chain) == 2 and state.sets is None:
        state.sets = _Membership(state.parent, [x for x in state.order if adj[x]])
    if len(chain) > 2 or any(state.sets.member(w, "tcoi") for w in adj[s] - {h, sr}):
        return "O2", (sr, hr), srm1
    if adj[s] == {h, v, sr}:
        return "O4", (h, s, sr, hr), v
    return None


def _subtree_end(adj, parent, down, w):
    """down[w], the far end of w's subtree seen from w (see _far_ends),
    from down[c] of each child c."""
    best = (0, w)
    for c in adj[w]:
        if c != parent[w]:
            d, x = down[c]
            if (d - 1, x) < best:
                best = (d - 1, x)
    return best


def _far_ends(adj, order, parent):
    """(down, up) for a rooted order of the tree (each vertex after its
    parent; the first one's parent is -1):
    down[w] is the far end of the directed edge (parent[w], w) and up[w]
    that of (w, parent[w]), both lists indexed by vertex label.
    The far end of (u, w) is (-d, x), where d is the largest distance from
    w to a vertex on w's side of the edge and x the smallest vertex at that
    distance.

    One rerooting pass: walked in reverse, the order gives each vertex the
    far end of its own subtree; walked forward, it gives each child the far
    end of the rest of the tree seen from its parent, the best of the
    parent itself, the parent's own view upward and its other children,
    read off the parent's best two candidates.  Keys are (-distance,
    vertex), so min picks the farthest, then the smallest.
    """
    down = [None] * len(parent)  # down[w]: w's subtree, seen from w
    for w in reversed(order):
        down[w] = _subtree_end(adj, parent, down, w)
    up = [None] * len(parent)  # up[w]: the rest of the tree, seen from parent[w]
    for p in order:
        first, second = (0, p), None
        if parent[p] >= 0:
            d, x = up[p]
            first = min(first, (d - 1, x))
        for c in adj[p]:
            if c != parent[p]:
                d, x = down[c]
                key = (d - 1, x)
                if key < first:
                    first, second = key, first
                elif second is None or key < second:
                    second = key
        for c in adj[p]:
            if c != parent[p]:
                d, x = down[c]
                up[c] = second if (d - 1, x) == first else first
    return down, up


def _select_triple(state):
    """Pick (h, h2, v): leaves h, h2 at maximum distance whose connecting
    path passes through a semi-support v two steps from h.  Deterministic
    tie-break by smallest (h, h2, v).

    Such a v is a neighbor of h's support s, and every h2 past v lies on
    v's side of the edge s-v, so the farthest one is that edge's far end
    (a leaf, because v is not one) at distance 2 + d.  Peels remove pendant
    pieces, so a side only shrinks and a key (d, h, h2, v) in state.triples
    never exceeds the current one, which it equals while h2 is left.
    """
    if state.triples is None:
        state.key_triples()
    adj, leaves, semi, heap = state.adj, state.leaves, state.semi, state.triples
    while heap:
        _, h, h2, v = heap[0]
        if h not in leaves or v not in semi:
            heappop(heap)
        elif not adj[h2]:
            (s,) = adj[h]
            d, h2 = state.far_end(s, v)
            if not adj[h2]:
                raise InternalError(f"far end {h2} of ({s}, {v}) is a removed vertex")
            heapreplace(heap, (d, h, h2, v))
        else:
            return h, h2, v
    return None


def _proof_move(state):
    """The structured reduction for a lower-bound member with n > 4, as a
    (kind, removed, attach) triple, or None: the operation, the vertices it
    removes in role order, and its attachment vertex, in the input's labels.

    Case order: a support with two leaves loses one (reverse O1); with no
    semi-supports, an end support of the support subtree comes off with its
    leaf (reverse O2); otherwise the deepest semi-support configuration is
    peeled as a caterpillar chain, a pendant 2-path, the whole pendant
    4-path (reverse O3), or a 4-vertex branch (reverse O4).  That
    configuration hangs off the longest leaf-to-leaf path through a
    semi-support two steps from its first leaf (_select_triple).  The end
    and the triple come off the state's heaps, and the rest uses the
    input's rooting, so a peel runs no BFS.
    """
    adj, leaves, supports, semi = state.adj, state.leaves, state.supports, state.semi

    doubles = state.doubles
    while doubles and len(adj[doubles[0]] & leaves) < 2:
        heappop(doubles)
    if doubles:
        return "O1", (min(adj[doubles[0]] & leaves),), doubles[0]

    if not semi:
        # No support has two leaves (the case above), so each has exactly
        # one; and every non-leaf is a support, since on a path from a
        # non-leaf non-support to a support the vertex before the first
        # support would be a semi-support.  So the supports form a tree on
        # n/2 >= 3 vertices, whose ends are exactly the supports of degree 2
        # (one support neighbor and one leaf), and an end's support
        # neighbor is never itself an end.  Peel the smallest end.
        ends = state.ends
        while ends and not (ends[0] in supports and len(adj[ends[0]]) == 2):
            heappop(ends)
        if not ends:
            return None
        s = ends[0]
        (h,) = adj[s] & leaves
        (x,) = adj[s] - leaves
        return "O2", (s, h), x

    triple = _select_triple(state)
    if triple is None:
        return None
    h, h2, v = triple
    (s,) = adj[h]  # the support between h and v

    if any(w in supports for w in adj[s]):
        return _q_chain_move(state, v, s, h)

    # s has no support neighbor: it must be the degree-2 end of the path
    if adj[s] != {h, v}:
        return None
    if len(adj[v] & supports) > 1:
        return "O2", (s, h), v
    if len(adj[v]) != 2:
        return None
    # walk two more steps toward h2: to v's other neighbor p, then to q,
    # the child of p above h2 if h2 lies below p, else p's parent
    (p,) = adj[v] - {s}
    parent, x = state.parent, h2
    while parent[x] != p and parent[x] >= 0:
        x = parent[x]
    q = x if parent[x] == p else parent[p]
    if adj[p] == {v, q}:
        return "O3", (p, v, s, h), q
    for w in sorted(adj[p] - {v, q}):
        if w in supports:
            return _q_chain_move(state, p, w, min(adj[w] & leaves))
    return None


def decompose_to_p4(tree):
    """Find an operation certificate rebuilding the tree from P_4
    (_certificate_steps), or None if the tree misses the lower bound."""
    if not attains_lower_bound(tree):
        return None
    return Certificate(_certificate_steps(tree.order, tree.parent), canonical_code(tree))


def _certificate_steps(order, parent):
    """The forward steps of a certificate for the tree of diameter >= 3
    rooted by (order, parent) as the DPs take them (Tree.order and
    Tree.parent), that attains the lower bound.

    The proof's case analysis (_proof_move) peels one operation at a time
    down to P_4 on one mutable _Peel state, choosing each by structure
    alone, and the steps are the peels reversed from there.  The replay
    checks every step's precondition, and that the steps rebuild the tree
    itself under the relabeling phi they define, not only a tree isomorphic
    to it.  There is no fallback search: a member on which no proof move
    applies, a peel that splits the tree or ends other than at P_4, or
    steps that do not replay are a defect in the moves and raise
    InternalError.
    """
    state = _Peel(order, parent)
    moves = []
    try:
        while state.n > 4:
            move = _proof_move(state)
            if move is None:
                raise InternalError(
                    f"no proof move applies to a lower-bound member of order {state.n}"
                )
            state.remove(move[1])
            moves.append(move)
        ends = sorted(state.leaves)
        if state.n != 4 or len(ends) != 2:
            raise InternalError(
                f"peeling ended at a tree of order {state.n} other than P_4"
            )
        p4 = [ends[0]]
        while len(p4) < 4:
            p4.append(next(w for w in state.adj[p4[-1]] if w not in p4))
        phi = {b: i for i, b in enumerate(p4)}
        steps = []
        for kind, removed, attach in reversed(moves):
            labels = tuple(range(len(phi), len(phi) + len(removed)))
            phi.update(zip(removed, labels))
            steps.append(OperationStep(kind, phi[attach], labels))
        mapped = []
        for v in order[1:]:
            x, y = phi[parent[v]], phi[v]
            mapped.append((x, y) if x < y else (y, x))
        mapped.sort()
        if sorted(_replay(steps)) != mapped:
            raise CertificateMismatchError("replay is not the target under the relabeling")
        return tuple(steps)
    except InternalError:
        raise
    except TreedomError as exc:
        raise InternalError(f"defective proof move: {exc}") from exc


# ---------------------------------------------------------------------------
# Exhaustive forward search over operation sequences
# ---------------------------------------------------------------------------


def exhaustive_sequence_search(tree, max_len=3):
    """All distinct operation-kind sequences of length <= max_len that build
    a tree isomorphic to the given one from P_4, each realized by some
    choice of attachment vertices."""
    if max_len < 0:
        raise BadParameterError(f"max_len must be >= 0, got {max_len}")
    _require_diameter(tree)
    target_code = canonical_code(tree)
    target_n = tree.n
    reach = [{0}]
    for _ in range(max_len):
        reach.append(reach[-1] | {s + a for s in reach[-1] for a in OP_SIZES.values()})
    results = set()
    start = path(4)
    if target_n == 4 and canonical_code(start) == target_code:
        results.add(())
    seen = set()
    stack = [(start, ())]
    while stack:
        t, kinds = stack.pop()
        steps_left = max_len - len(kinds)
        if steps_left == 0:
            continue
        need = target_n - t.n
        for kind in OP_KINDS:
            add = OP_SIZES[kind]
            if add > need or (need - add) not in reach[steps_left - 1]:
                continue
            for v in range(t.n):
                try:
                    nt = apply_operation(t, OperationStep(kind, v))
                except TreedomError:
                    continue
                nk = kinds + (kind,)
                if nt.n == target_n:
                    if canonical_code(nt) == target_code:
                        results.add(nk)
                    continue
                key = (canonical_code(nt), nk)
                if key not in seen:
                    seen.add(key)
                    stack.append((nt, nk))
    return sorted(results)
