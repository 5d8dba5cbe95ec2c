"""Exhaustive enumeration of non-isomorphic trees and the theorem harness.

enumerate_trees generates each free tree on n vertices exactly once, as
the level sequence of the tree rooted at its center, with the algorithm
of Wright, Richmond, Odlyzko and McKay ("Constant time generation of free
trees", SIAM J. Comput. 15, 1986): it walks the rooted level sequences in
the Beyer-Hedetniemi successor order and jumps over every run of
sequences that are not the canonical rooting of a free tree, so no tree
is built or encoded twice.

run_census reads each tree's record off its sequence (_classify_levels).
The sequence splits at its level-1 positions into the subtrees hanging
from the center, and each is looked up, by its level sequence, in a memo
of subtree summaries (_Subtree) that lasts one run.  A summary holds the
three DP states, the AHU code, the leaf count and the flags of the
paper's stated upper condition.  A missing one is folded along its
sequence with an explicit stack, each vertex's summary from its
children's, so each distinct subtree hanging from a center is folded once
per run, a record folds only the center, and the memo stays linear in
the subtrees it holds.  classify reaches the same core through a
center-rooted preorder, with a memo of its own, and certifies a
lower-family member by a whole certificate peeled from the sequence's own
rooting.  The census follows the paper's induction instead (_reduces): a
member is certified when one proof move on that rooting leaves a smaller
member certified earlier in the run, onto which the move's operation puts
the piece back, so by induction from P_4 each one has a certificate.  A
Tree is built only for the subset checks, which test bit masks
(minimality asks is_minimal_tcoi_set's condition of each mask).  The run
counts violations of the verified statements; all counters must be zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .characterize import _certificate_steps, _Peel, _proof_move
from .errors import BadParameterError, InternalError, TooLargeError, TreedomError
from .generators import _PIECES, OP_PRECONDITION, OP_SIZES
from .solvers import (
    _INF,
    SUBSET_CAP,
    _beta_fold,
    _gamma_t_fold,
    _Membership,
    _minimal_mask,
    _neighbor_masks,
    _optimal_masks,
    _tcoi_fold,
    _valid_masks,
)
from .trees import Tree, _bfs, _center_code, _center_levels, _level_code
from .trees import canonical_code  # re-exported

ENUMERATION_CAP = 18

# cost caps for the two subset-exhaustive checks inside run_census
DISTANCE_REMARK_MAX_N = 12
MINIMALITY_MAX_N = 10


def _next_rooted(seq, p):
    """Beyer-Hedetniemi successor of the level sequence seq at position p
    (seq[p] > 1): the prefix seq[:p] is kept and the rest repeats the
    segment seq[q:p], where q is p's parent (the last vertex before p one
    level up)."""
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    span = p - q
    nxt = seq[:p]
    for i in range(p, len(seq)):
        nxt.append(nxt[i - span])
    return nxt


def _second_subtree(seq):
    """Index where the root's second subtree starts (len(seq) if none)."""
    try:
        return seq.index(1, 2)
    except ValueError:
        return len(seq)


def _free_level_sequences(n):
    """Level sequences of the free trees on n vertices, one per isomorphism
    class, lexicographically decreasing from the path (WROM 1986).

    Each tree is rooted at its center (at one end of its central edge when
    bicentral).  Such a sequence is valid when the root's first subtree
    seq[1:m] is lower than the rest of the tree [0] + seq[m:], or as high
    and no larger in (size, sequence) order; an invalid sequence jumps to
    the next rooted tree with a different first subtree.
    """
    if n <= 2:
        yield list(range(n))
        return
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _second_subtree(seq)
        left = [x - 1 for x in seq[1:m]]
        rest = [0] + seq[m:]
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            yield seq
            p = n - 1
            while seq[p] == 1:
                p -= 1
            if p == 0:  # the star comes last
                return
            seq = _next_rooted(seq, p)
        else:
            deep = seq[m - 1] > 2
            seq = _next_rooted(seq, m - 1)
            if deep:
                # end the tree with a path one level higher than the new
                # first subtree
                h = max(seq[1:_second_subtree(seq)])
                seq[n - h:] = range(1, h + 1)


def _levels_parent(seq):
    """Each vertex's parent in the level sequence seq (-1 at the root): the
    latest vertex one level up."""
    parent = [-1] * len(seq)
    latest = [0] * len(seq)  # latest vertex seen at each level
    for i in range(1, len(seq)):
        d = seq[i]
        parent[i] = latest[d - 1]
        latest[d] = i
    return parent


def _tree_from_levels(seq):
    parent = _levels_parent(seq)
    return Tree._trusted(len(seq), [(parent[i], i) for i in range(1, len(seq))])


def enumerate_trees(n):
    """One representative per isomorphism class of trees on n vertices, in
    deterministic order (capped at ENUMERATION_CAP vertices)."""
    if n < 1:
        raise BadParameterError("need n >= 1")
    if n > ENUMERATION_CAP:
        raise TooLargeError(f"enumeration capped at {ENUMERATION_CAP} vertices, got {n}")
    return [_tree_from_levels(seq) for seq in _free_level_sequences(n)]


@dataclass(frozen=True, slots=True)
class CensusRecord:
    """Per-isomorphism-class row of the census table.

    Family fields are None for trees of diameter < 3, where the extremal
    families are not defined.
    """

    canon: bytes
    n: int
    diameter: int
    num_leaves: int
    beta: int
    gamma_t: int
    tcoi: int | None
    in_t_beta: bool | None
    in_t_l: bool | None
    structural_tl: bool | None
    certificate_found: bool | None


# _Subtree.kind bits: the root is a leaf, a support (a non-leaf with a leaf
# neighbor), or a lone support (one without a support child)
_LEAF, _SUPPORT, _LONE = 1, 2, 4


class _Subtree:
    """What the census needs of a rooted subtree hanging from a parent
    outside it, folded from its children's summaries alone.

    beta, gamma_t and tcoi are (normalized state, total) pairs: the state
    that _beta_fold, _gamma_t_fold or _tcoi_fold gives its root with unit
    weights, and the sum of the folds' offsets over the subtree, which the
    state is normalized against.  code is the AHU code "(" + the children's
    codes, sorted, + ")", and kid_codes that sorted list.  height is the
    largest depth below the root, leaves the number of leaves (a root
    without children is one), and kind the root's _LEAF, _SUPPORT and
    _LONE bits.  Bit q of fails is set when the paper's upper-family
    condition (each vertex is a leaf, support or semi-support, and each
    semi-support has an isolated-support neighbor) fails on some vertex of
    the subtree, given a parent that is q = 0: not a support, 1: a support
    with a support neighbor, 2: an isolated support.  The parent is the
    only vertex outside that touches the subtree, and it is not a leaf
    (it would be one only in the tree on two vertices), so a root is a
    support exactly when it has a leaf child.
    """

    __slots__ = ("beta", "gamma_t", "tcoi", "code", "kid_codes", "height",
                 "leaves", "kind", "fails")

    def __init__(self, kids):
        self.beta = _folded(_beta_fold, [s.beta for s in kids])
        self.gamma_t = _folded(_gamma_t_fold, [s.gamma_t for s in kids])
        self.tcoi = _folded(_tcoi_fold, [s.tcoi for s in kids])
        codes = self.kid_codes = sorted([s.code for s in kids])
        self.code = b"(" + b"".join(codes) + b")"
        height, leaves, seen, fails = -1, 0, 0, 0
        for s in kids:
            if s.height > height:
                height = s.height
            leaves += s.leaves
            seen |= s.kind
            fails |= s.fails
        self.height = height + 1
        self.leaves = leaves or 1
        if not kids:
            self.kind, self.fails = _LEAF, 0
        elif seen & _LEAF:
            # a support: its children see it as an isolated support exactly
            # when neither a child (seen) nor the parent (q > 0) is one
            self.kind = _SUPPORT if seen & _SUPPORT else _SUPPORT | _LONE
            f = fails >> 1 & 1
            self.fails = (f if seen & _SUPPORT else fails >> 2 & 1) | f << 1 | f << 2
        else:
            # neither a leaf nor a support: it must be a semi-support with an
            # isolated-support neighbor, a lone-support child or the parent
            # (q = 2; and then it is a semi-support)
            self.kind = 0
            f = fails & 1 | (0 if seen & _LONE else 1)
            self.fails = f | f << 1 | (fails & 1) << 2


def _folded(fold, states):
    """(normalized state, total) of a vertex of weight 1 whose children
    have the (normalized state, total) pairs states."""
    state, offset = fold(1, range(len(states)), states)
    return state, offset + sum([t for _, t in states])


def _summary(seg):
    """The _Subtree of the rooted subtree whose preorder has vertex i at
    level seg[i], with its root at level 1, folded vertex by vertex:
    stack[d - 1] collects the summaries of the open level-d vertex's
    finished children."""
    stack = [[]]
    for d in seg[1:] + (2,):  # a last vertex at level 2 closes the rest
        while len(stack) >= d:
            kids = stack.pop()
            stack[-1].append(_Subtree(kids))
        stack.append([])
    return _Subtree(stack[0])


def _hanging(seq, memo):
    """The _Subtree of each subtree hanging from the root of the level
    sequence seq (a tuple), from left to right.  memo maps the level
    sequence of such a subtree (from its level-1 root) to its summary; a
    miss is folded by _summary."""
    marked = seq + (1,)
    kids = []
    i, end = 1, len(seq)
    while i < end:
        j = marked.index(1, i + 1)
        seg = seq[i:j]
        s = memo.get(seg)
        if s is None:
            s = memo[seg] = _summary(seg)
        kids.append(s)
        i = j
    return kids


def _has_certificate(seq):
    """True iff the certificate core peels the lower-family member with
    level sequence seq down to P_4, on seq's own rooting, and the steps
    replay; a defect in the moves shows as InternalError."""
    try:
        _certificate_steps(range(len(seq)), _levels_parent(seq))
    except InternalError:
        return False
    return True


def _reduces(seq, window):
    """True iff the lower-family member M with level sequence seq is P_4,
    or one proof move on seq's own rooting peels a piece off M that leaves
    a certified member M' and that the move's operation puts back on M':
    the piece has the operation's size and the shape of its _PIECES
    template at the attachment vertex, hangs by exactly one edge, the code
    of M' is in window (order -> the codes of that order's certified
    members), and the operation's precondition holds at the attachment
    vertex of M'.  By induction from P_4, every member so certified has a
    certificate (the paper's proof of the lower characterization)."""
    n = len(seq)
    if n == 4:
        return True
    state = _Peel(range(n), _levels_parent(seq))
    adj = state.adj
    try:
        move = _proof_move(state)
        if move is None:
            return False
        kind, removed, attach = move
        vertices = (attach, *removed)
        if (len(removed) != OP_SIZES[kind] or len(set(vertices)) != len(vertices)
                or not all(0 <= x < n for x in vertices)
                or any((attach if i < 0 else removed[i]) not in adj[x]
                       for x, i in zip(removed, _PIECES[kind]))):
            return False
        state.remove(removed)
    except TreedomError:
        return False
    code = _level_code(*_center_levels(adj, _bfs(adj, attach)[0][-1]))
    if code not in window.get(n - len(removed), ()):
        return False
    sets = _Membership(state.parent, [x for x in state.order if adj[x]])
    return sets.member(attach, OP_PRECONDITION[kind])


def _classify_levels(seq, memo, certify=_has_certificate):
    """The CensusRecord of the tree with center-rooted level sequence seq,
    read off the _Subtree of its root, which is folded from the summaries
    of the subtrees hanging from it (_hanging; memo maps their level
    sequences to their summaries, and grows with each new one).

    The root counts as a leaf when it has at most one child.  The diameter
    is the sum of the two highest subtree heights at the center: h and
    h - 1 exactly when the tree is bicentral, and then the other center is
    the first child, and the code is the smaller of the two center-rooted
    ones.  A lower-family member is certified when certify(seq) holds: by
    default _has_certificate, a whole certificate, which a lone tree
    needs; the census passes _reduces.
    """
    n = len(seq)
    kids = _hanging(tuple(seq), memo)
    root = _Subtree(kids)
    h = root.height
    rest = max([s.height for s in kids[1:]], default=-1) + 1
    code = _center_code(root.kid_codes, kids[0].kid_codes if rest < h else None)
    (a, _, c, _), total = root.gamma_t
    gamma_t = (a if a < c else c) + total
    leaves = root.leaves + (len(kids) == 1)
    beta = root.beta[1]
    tcoi = root.tcoi[1] if n >= 3 else None
    diam = h + rest
    in_beta = in_l = structural = certified = None
    if diam >= 3:
        in_beta = tcoi == n - beta
        in_l = tcoi == n - leaves
        structural = not root.fails & 1
        certified = in_beta and certify(seq)
    return CensusRecord(
        canon=code,
        n=n,
        diameter=diam,
        num_leaves=leaves,
        beta=beta,
        gamma_t=None if gamma_t == _INF else gamma_t,
        tcoi=tcoi,
        in_t_beta=in_beta,
        in_t_l=in_l,
        structural_tl=structural,
        certificate_found=certified,
    )


def classify(tree):
    """The CensusRecord of any tree, from a center-rooted preorder of it,
    with a memo of its own."""
    seq, _ = _center_levels(tree.adj, tree.order[-1])
    return _classify_levels(seq, {})


CSV_HEADER = [
    "canon", "n", "diam", "leaves", "beta", "gamma_t", "tcoi",
    "t_beta", "t_l", "structural_tl", "certified",
]


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def records_to_csv(records):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow([
            r.canon.hex(), r.n, r.diameter, r.num_leaves, r.beta,
            _cell(r.gamma_t), _cell(r.tcoi), _cell(r.in_t_beta),
            _cell(r.in_t_l), _cell(r.structural_tl), _cell(r.certificate_found),
        ])
    return buf.getvalue()


def check_distance_remark(tree):
    """True iff in every maximum independent set, each member has another
    member within distance 3 (ball[v]: the vertices within distance 3)."""
    n = tree.n
    ball = [1 << v for v in range(n)]
    for _ in range(3):
        grown = list(ball)
        for u, v in tree.edges:
            grown[u] |= ball[v]
            grown[v] |= ball[u]
        ball = grown
    for m in _optimal_masks(tree, "beta", SUBSET_CAP):
        if not all((m ^ 1 << v) & ball[v] for v in range(n) if m >> v & 1):
            return False
    return True


def check_minimality_agreement(tree):
    """True iff the condition-based minimality test agrees with direct
    single-removal minimality on every total co-independent dominating set.

    D - {v} is one exactly when its mask is among the enumerated ones."""
    masks = _valid_masks(tree, "tcoi", SUBSET_CAP)
    valid = set(masks)
    nb = _neighbor_masks(tree)
    for m in masks:
        by_removal = not any(m ^ 1 << v in valid for v in range(tree.n) if m >> v & 1)
        if _minimal_mask(tree.adj, nb, m) != by_removal:
            return False
    return True


_COUNTER_NAMES = (
    "bound_sandwich_violations",
    "lower_characterization_mismatches",
    "upper_characterization_mismatches",
    "distance_remark_violations",
    "minimality_mismatches",
)


def run_census(max_n):
    """Classify every tree with 3 <= n <= max_n and verify the theorems.

    Returns (records, report).  The report counts, over all trees of
    diameter >= 3: violations of n - beta <= tcoi <= n - #leaves, trees
    that attain the lower bound but are not certified (certified is false
    for a member that does not reduce by one proof move to a smaller
    certified member, _reduces, and so for every member that reduces only
    through it), and trees where the structural check disagrees with
    attaining the upper bound.  A window keeps the certified members'
    codes of the four orders below the current one.  The distance remark
    is checked for n <= 12 and minimality agreement for n <= 10
    (subset-exhaustive; see check_* functions).
    """
    if max_n > ENUMERATION_CAP:
        raise TooLargeError(f"census capped at {ENUMERATION_CAP} vertices, got {max_n}")
    records = []
    counters = {name: 0 for name in _COUNTER_NAMES}
    first = None

    def hit(name, rec):
        nonlocal first
        counters[name] += 1
        if first is None:
            first = {"check": name, "n": rec.n, "canon": rec.canon.hex()}

    memo = {}
    window = {}  # order -> the codes of its certified members

    def reduces(seq):
        return _reduces(seq, window)

    for n in range(3, max_n + 1):
        window.pop(n - 5, None)
        codes = window[n] = set()
        for seq in _free_level_sequences(n):
            rec = _classify_levels(seq, memo, reduces)
            records.append(rec)
            if rec.certificate_found:
                codes.add(rec.canon)
            if rec.diameter >= 3:
                if not (rec.n - rec.beta <= rec.tcoi <= rec.n - rec.num_leaves):
                    hit("bound_sandwich_violations", rec)
                if rec.certificate_found != rec.in_t_beta:
                    hit("lower_characterization_mismatches", rec)
                if rec.structural_tl != rec.in_t_l:
                    hit("upper_characterization_mismatches", rec)
            if n <= DISTANCE_REMARK_MAX_N:
                tree = _tree_from_levels(seq)
                if not check_distance_remark(tree):
                    hit("distance_remark_violations", rec)
                if n <= MINIMALITY_MAX_N and not check_minimality_agreement(tree):
                    hit("minimality_mismatches", rec)
    report = {
        "max_n": max_n,
        "tree_count": len(records),
        "counters": counters,
        "first_counterexample": first,
        "caps": {
            "distance_remark_max_n": DISTANCE_REMARK_MAX_N,
            "minimality_max_n": MINIMALITY_MAX_N,
        },
        "all_hold": all(v == 0 for v in counters.values()),
    }
    return records, report
