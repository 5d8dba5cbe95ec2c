"""Exhaustive enumeration of non-isomorphic trees and the theorem harness.

enumerate_trees generates one representative per isomorphism class via
canonical level sequences of rooted trees filtered to free trees by
canonical code.  run_census classifies every tree up to a given order and
counts violations of the verified statements; all counters must be zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .characterize import decompose_to_p4, structural_upper_bound_check
from .errors import BadParameterError, TooLargeError
from .solvers import (
    all_tcoi_sets,
    invariant_value,
    is_minimal_tcoi_set,
    is_tcoi_set,
    optimal_sets,
)
from .trees import Tree, canonical_code, distance_matrix, structure

ENUMERATION_CAP = 18

# cost caps for the two subset-exhaustive checks inside run_census
DISTANCE_REMARK_MAX_N = 12
MINIMALITY_MAX_N = 10


def _level_sequences(n):
    """Canonical level sequences of all rooted trees on n vertices,
    lexicographically decreasing from the path."""
    if n == 1:
        yield [0]
        return
    seq = list(range(n))
    while True:
        yield seq
        p = -1
        for i in range(n - 1, -1, -1):
            if seq[i] > 1:
                p = i
                break
        if p < 0:
            return
        q = next(i for i in range(p - 1, -1, -1) if seq[i] == seq[p] - 1)
        span = p - q
        nxt = seq[:p]
        for i in range(p, n):
            nxt.append(nxt[i - span])
        seq = nxt


def _tree_from_levels(seq):
    n = len(seq)
    edges = []
    latest = [0] * n  # latest vertex seen at each level
    for i in range(1, n):
        edges.append((latest[seq[i] - 1], i))
        latest[seq[i]] = i
    return Tree(n, tuple(edges))


def enumerate_trees(n):
    """One representative per isomorphism class of trees on n vertices, in
    deterministic order (capped at ENUMERATION_CAP vertices)."""
    if n < 1:
        raise BadParameterError("need n >= 1")
    if n > ENUMERATION_CAP:
        raise TooLargeError(f"enumeration capped at {ENUMERATION_CAP} vertices, got {n}")
    out = []
    seen = set()
    for seq in _level_sequences(n):
        t = _tree_from_levels(seq)
        code = canonical_code(t)
        if code not in seen:
            seen.add(code)
            out.append(t)
    return out


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


def classify(tree):
    rep = structure(tree)
    beta = invariant_value(tree, "beta")
    gamma_t = invariant_value(tree, "gamma_t") if tree.n >= 2 else None
    tcoi = invariant_value(tree, "tcoi") if tree.n >= 3 else None
    in_beta = in_l = structural = certified = None
    if rep.diameter >= 3:
        in_beta = tcoi == tree.n - beta
        in_l = tcoi == tree.n - len(rep.leaves)
        structural = structural_upper_bound_check(tree)
        certified = in_beta and decompose_to_p4(tree) is not None
    return CensusRecord(
        canon=canonical_code(tree),
        n=tree.n,
        diameter=rep.diameter,
        num_leaves=len(rep.leaves),
        beta=beta,
        gamma_t=gamma_t,
        tcoi=tcoi,
        in_t_beta=in_beta,
        in_t_l=in_l,
        structural_tl=structural,
        certificate_found=certified,
    )


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
    member within distance 3."""
    dm = distance_matrix(tree)
    for b in optimal_sets(tree, "beta"):
        for v in b:
            if not any(u != v and dm[v][u] <= 3 for u in b):
                return False
    return True


def check_minimality_agreement(tree):
    """True iff the condition-based minimality test agrees with direct
    single-removal minimality on every total co-independent dominating set."""
    for d in all_tcoi_sets(tree):
        by_condition = is_minimal_tcoi_set(tree, d)
        by_removal = not any(is_tcoi_set(tree, d - {v}) for v in d)
        if by_condition != by_removal:
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

    def hit(name, tree):
        nonlocal first
        counters[name] += 1
        if first is None:
            first = {"check": name, "n": tree.n, "canon": canonical_code(tree).hex()}

    for n in range(3, max_n + 1):
        for tree in enumerate_trees(n):
            rec = classify(tree)
            records.append(rec)
            if rec.diameter >= 3:
                if not (rec.n - rec.beta <= rec.tcoi <= rec.n - rec.num_leaves):
                    hit("bound_sandwich_violations", tree)
                if rec.certificate_found != rec.in_t_beta:
                    hit("lower_characterization_mismatches", tree)
                if rec.structural_tl != rec.in_t_l:
                    hit("upper_characterization_mismatches", tree)
            if n <= DISTANCE_REMARK_MAX_N and not check_distance_remark(tree):
                hit("distance_remark_violations", tree)
            if n <= MINIMALITY_MAX_N and not check_minimality_agreement(tree):
                hit("minimality_mismatches", tree)
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
