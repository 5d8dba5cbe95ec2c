"""Exhaustive enumeration of non-isomorphic trees and the theorem harness.

enumerate_trees generates each free tree on n vertices exactly once, as
the level sequence of the tree rooted at its center, with the algorithm
of Wright, Richmond, Odlyzko and McKay ("Constant time generation of free
trees", SIAM J. Comput. 15, 1986): it walks the rooted level sequences in
the Beyer-Hedetniemi successor order and jumps over every run of
sequences that are not the canonical rooting of a free tree, so no tree
is built or encoded twice.  run_census reads each tree's record off its
sequence, one tree at a time (_classify_levels, which classify reaches
through a center-rooted preorder); it builds a Tree only for a
lower-family member's certificate and for the subset checks, which test
bit masks (minimality asks is_minimal_tcoi_set's condition of each mask).
It counts violations of the verified statements; all counters must be
zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .characterize import _certificate_steps, _stated_upper_condition
from .errors import BadParameterError, TooLargeError
from .solvers import (
    SUBSET_CAP,
    _minimal_mask,
    _neighbor_masks,
    _optimal_masks,
    _unit_value,
    _valid_chunks,
)
from .trees import (
    Tree,
    _center_levels,
    _level_code,
    _vertex_classes,
    canonical_code,  # re-exported
)

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


@dataclass(frozen=True)
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


def _classify_levels(seq, tree=None):
    """The CensusRecord of the tree with center-rooted level sequence seq.

    The DPs fold along its preorder.  The diameter is the sum of the two
    highest subtree heights at the center: h and h - 1 exactly when the
    tree is bicentral.  A lower-family member's certificate takes tree
    (any tree of the class), else one built from seq.
    """
    n = len(seq)
    h = max(seq)
    rest = max(seq[_second_subtree(seq):], default=0)
    parent = _levels_parent(seq)
    adj = [[] for _ in range(n)]
    for i in range(1, n):
        adj[parent[i]].append(i)
        adj[i].append(parent[i])
    order = range(n)
    beta = _unit_value(order, parent, "beta")
    gamma_t = _unit_value(order, parent, "gamma_t")
    tcoi = _unit_value(order, parent, "tcoi")
    classes = _vertex_classes(adj)
    leaves = len(classes[0])
    diam = h + rest
    in_beta = in_l = structural = certified = None
    if diam >= 3:
        in_beta = tcoi == n - beta
        in_l = tcoi == n - leaves
        structural = _stated_upper_condition(adj, classes)
        # the record holds the diameter, lower bound and code, so a member
        # runs only the peel and replay, which raise InternalError on a defect
        if in_beta:
            _certificate_steps(tree if tree is not None else _tree_from_levels(seq))
        certified = in_beta
    return CensusRecord(
        canon=_level_code(seq, rest < h),
        n=n,
        diameter=diam,
        num_leaves=leaves,
        beta=beta,
        gamma_t=gamma_t,
        tcoi=tcoi,
        in_t_beta=in_beta,
        in_t_l=in_l,
        structural_tl=structural,
        certificate_found=certified,
    )


def classify(tree):
    """The CensusRecord of any tree, from a center-rooted preorder of it."""
    seq, _ = _center_levels(tree)
    return _classify_levels(seq, tree)


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
    for hits in _optimal_masks(tree, "beta", SUBSET_CAP):
        for m in hits.tolist():
            if not all((m ^ 1 << v) & ball[v] for v in range(n) if m >> v & 1):
                return False
    return True


def check_minimality_agreement(tree):
    """True iff the condition-based minimality test agrees with direct
    single-removal minimality on every total co-independent dominating set.

    D - {v} is one exactly when its mask is among the enumerated ones."""
    masks = [m for hits in _valid_chunks(tree, "tcoi", SUBSET_CAP) for m in hits.tolist()]
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
    where certificate existence disagrees with attaining the lower bound,
    and trees where the structural check disagrees with attaining the upper
    bound.  The distance remark is checked for n <= 12 and minimality
    agreement for n <= 10 (subset-exhaustive; see check_* functions).
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

    for n in range(3, max_n + 1):
        for seq in _free_level_sequences(n):
            # the subset checks' Tree, shared with a member's certificate
            tree = _tree_from_levels(seq) if n <= DISTANCE_REMARK_MAX_N else None
            rec = _classify_levels(seq, tree)
            records.append(rec)
            if rec.diameter >= 3:
                if not (rec.n - rec.beta <= rec.tcoi <= rec.n - rec.num_leaves):
                    hit("bound_sandwich_violations", rec)
                if rec.certificate_found != rec.in_t_beta:
                    hit("lower_characterization_mismatches", rec)
                if rec.structural_tl != rec.in_t_l:
                    hit("upper_characterization_mismatches", rec)
            if n <= DISTANCE_REMARK_MAX_N and not check_distance_remark(tree):
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
