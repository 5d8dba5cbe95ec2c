"""Membership tests for the two extremal families and operation certificates.

A tree of diameter >= 3 attains the lower bound when its total
co-independent domination number equals n minus the independence number,
and the upper bound when it equals n minus the number of leaves.  The lower
family has an operational characterization: exactly the trees reachable
from P_4 by attachment operations O1-O4 applied at vertices lying in
suitable optimal sets.  decompose_to_p4 finds such an operation sequence
with the proof's case analysis alone, peeling one validated configuration
at a time down to P_4; verify_certificate replays a certificate forward and
checks every precondition, and decompose_to_p4 runs it on each certificate
before returning it.  A member on which no move applies would be a defect
in the moves, not a counterexample, and raises InternalError (no tree of
order <= 18 does).  The upper family has a purely structural
characterization: structural_upper_bound_check tests the condition as the
paper states it, which is necessary but not sufficient, and
upper_family_check tests the corrected condition, which is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    CertificateMismatchError,
    InternalError,
    InvalidStepError,
    TreedomError,
    UndefinedInvariantError,
)
from .generators import OP_KINDS, OP_PRECONDITION, OP_SIZES, OperationStep, apply_operation, path
from .solvers import in_some_optimal_set, invariant_value
from .trees import (
    canonical_code,
    diameter,
    distance_matrix,
    structure,
)


def _require_diameter(d):
    if d < 3:
        raise UndefinedInvariantError(
            "extremal family membership is defined only for trees of diameter >= 3"
        )


def _lower_bound_holds(tree):
    return invariant_value(tree, "tcoi") == tree.n - invariant_value(tree, "beta")


def attains_lower_bound(tree):
    """True iff the total co-independent domination number equals n - beta."""
    _require_diameter(diameter(tree))
    return _lower_bound_holds(tree)


def attains_upper_bound(tree):
    """True iff the total co-independent domination number equals n - #leaves."""
    rep = structure(tree)
    _require_diameter(rep.diameter)
    return invariant_value(tree, "tcoi") == tree.n - len(rep.leaves)


def structural_upper_bound_check(tree):
    """The paper's stated structural condition for the upper family: every
    vertex is a leaf, support, or semi-support, and every semi-support has
    an isolated-support neighbor (a support with no support neighbor).

    Every tree attaining n - #leaves satisfies it, but the converse fails,
    first at order 9 (the 8-path with a pendant on a middle vertex), so it
    is necessary and not sufficient.  upper_family_check is the exact test.
    """
    rep = structure(tree)
    _require_diameter(rep.diameter)
    covered = rep.leaves | rep.supports | rep.semi_supports
    if len(covered) != tree.n:
        return False
    return all(
        any(w in rep.isolated_supports for w in tree.adj[v])
        for v in rep.semi_supports
    )


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
    rep = structure(tree)
    _require_diameter(rep.diameter)
    leaves = rep.leaves
    inner_degree = [
        sum(1 for w in tree.adj[u] if w not in leaves) for u in range(tree.n)
    ]
    return all(
        any(inner_degree[u] == 1 for u in tree.adj[v])
        for v in range(tree.n)
        if v not in leaves and v not in rep.supports
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


_STEP_RE = re.compile(r"^(O[1-4]) attach=(\d+) new=(\d+(?:,\d+)*)$")


def certificate_from_text(text):
    lines = [l.strip() for l in text.strip().splitlines() if l.strip()]
    if not lines or lines[0] != "base=P4":
        raise CertificateMismatchError("certificate must start with 'base=P4'")
    if not lines[-1].startswith("canon="):
        raise CertificateMismatchError("certificate must end with a canon= line")
    final_code = bytes.fromhex(lines[-1][len("canon="):])
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


def verify_certificate(cert, target):
    """Replay a certificate from P_4 and compare against the target tree.

    Returns True; raises InvalidStepError if a step cannot be applied (with
    its index) and CertificateMismatchError if the replayed tree does not
    match the recorded code or the target's isomorphism class.
    """
    cur = path(4)
    for i, step in enumerate(cert.steps):
        try:
            cur = apply_operation(cur, step)
        except TreedomError as exc:
            raise InvalidStepError(i, str(exc)) from exc
    code = canonical_code(cur)
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


@dataclass(frozen=True)
class _Reduction:
    """One peeled operation: kind, removed vertices in role order, and the
    attachment vertex, all in the labels of the tree it was peeled from."""

    kind: str
    removed: tuple
    attach: int


def _validated(tree, red):
    """Check that a reduction peels cleanly: the remainder is a tree of
    diameter >= 3 that still attains the lower bound, and the forward
    precondition holds at the attachment vertex.  Returns (red, subtree,
    old_to_new) or None."""
    if red.attach in red.removed:
        return None
    try:
        sub, old_to_new = tree.without(red.removed)
    except TreedomError:
        return None
    if diameter(sub) < 3 or not _lower_bound_holds(sub):
        return None
    if not in_some_optimal_set(sub, old_to_new[red.attach], OP_PRECONDITION[red.kind]):
        return None
    return red, sub, old_to_new


def _leaf_neighbors(tree, v, leaves):
    return sorted(w for w in tree.adj[v] if w in leaves)


def _q_chain_move(tree, rep, v, s, h):
    """Validated peel for the caterpillar configuration hanging at
    semi-support v: follow the support chain from s and peel its far end
    (reverse O2), or, for a one-link chain, peel the whole 4-vertex piece as
    a reverse O4."""
    supports, leaves = rep.supports, rep.leaves
    chain = [s]
    prev = None
    while True:
        nxt = sorted(x for x in tree.adj[chain[-1]] if x in supports and x != prev)
        if not nxt:
            break
        prev = chain[-1]
        chain.append(nxt[0])
    if len(chain) >= 3:
        sr, srm1 = chain[-1], chain[-2]
        hr_list = _leaf_neighbors(tree, sr, leaves)
        if hr_list and set(tree.adj[sr]) == {srm1, hr_list[0]}:
            return _validated(tree, _Reduction("O2", (sr, hr_list[0]), srm1))
        return None
    # one-link chain: s - s1
    s1 = chain[1]
    h1_list = _leaf_neighbors(tree, s1, leaves)
    if not h1_list:
        return None
    h1 = h1_list[0]
    if set(tree.adj[s1]) == {s, h1}:
        peel = _validated(tree, _Reduction("O2", (s1, h1), s))
        if peel is None and set(tree.adj[s]) == {h, v, s1}:
            peel = _validated(tree, _Reduction("O4", (h, s, s1, h1), v))
        return peel
    return None


def _select_triple(tree, rep, dm):
    """Pick (h, h2, v): leaves h, h2 at maximum distance whose connecting
    path passes through a semi-support v two steps from h.  Deterministic
    tie-break by smallest (h, h2, v)."""
    best = None
    for v in sorted(rep.semi_supports):
        for h in sorted(rep.leaves):
            if dm[v][h] != 2:
                continue
            for h2 in sorted(rep.leaves):
                if h2 == h or dm[h][v] + dm[v][h2] != dm[h][h2]:
                    continue
                key = (-dm[h][h2], h, h2, v)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[1], best[2], best[3]


def _proof_move(tree):
    """The structured reduction for a lower-bound member with n > 4, as the
    validated (reduction, subtree, old_to_new) of _validated, or None.

    Case order: a support with two leaves loses one (reverse O1); with no
    semi-supports, an end support of the support subtree comes off with its
    leaf (reverse O2); otherwise the deepest semi-support configuration is
    peeled as a caterpillar chain, a pendant 2-path, the whole pendant
    4-path (reverse O3), or a 4-vertex branch (reverse O4).
    """
    rep = structure(tree)
    leaves, supports, semi = rep.leaves, rep.supports, rep.semi_supports

    if len(supports) < len(leaves):
        for v in sorted(supports):
            lv = _leaf_neighbors(tree, v, leaves)
            if len(lv) >= 2:
                return _validated(tree, _Reduction("O1", (lv[0],), v))
        return None

    if not semi:
        # every vertex is a leaf or a support; peel an end support whose
        # support-neighbor is not itself an end
        sup_deg = {x: sum(1 for w in tree.adj[x] if w in supports) for x in supports}
        for s in sorted(supports):
            if sup_deg[s] != 1:
                continue
            x = next(w for w in tree.adj[s] if w in supports)
            if sup_deg[x] < 2:
                continue
            lv = _leaf_neighbors(tree, s, leaves)
            if len(lv) == 1 and set(tree.adj[s]) == {lv[0], x}:
                return _validated(tree, _Reduction("O2", (s, lv[0]), x))
        return None

    dm = distance_matrix(tree)
    triple = _select_triple(tree, rep, dm)
    if triple is None:
        return None
    h, h2, v = triple
    s = tree.adj[h][0]  # the support between h and v

    if any(w in supports for w in tree.adj[s]):
        return _q_chain_move(tree, rep, v, s, h)

    # s has no support neighbor: it must be the degree-2 end of the path
    if set(tree.adj[s]) != {h, v}:
        return None
    v_sup = [w for w in tree.adj[v] if w in supports]
    if len(v_sup) > 1:
        return _validated(tree, _Reduction("O2", (s, h), v))
    if tree.degree(v) != 2:
        return None
    # walk two more steps toward h2
    p = next(w for w in tree.adj[v] if dm[w][h2] == dm[v][h2] - 1)
    q = next(w for w in tree.adj[p] if dm[w][h2] == dm[p][h2] - 1)
    if set(tree.adj[p]) == {v, q}:
        return _validated(tree, _Reduction("O3", (p, v, s, h), q))
    for w in sorted(set(tree.adj[p]) - {v, q}):
        if w in supports:
            wl = _leaf_neighbors(tree, w, leaves)
            if wl:
                return _q_chain_move(tree, rep, p, w, wl[0])
    return None


def _forward_certificate(tree, base, base_to_orig, reductions):
    """Turn the peels (outermost first, in the tree's labels) into forward
    steps from the P_4 base they ended at, and check the result by replay."""
    order = [min(v for v in range(4) if len(base.adj[v]) == 1)]
    while len(order) < 4:
        order.append(next(w for w in base.adj[order[-1]] if w not in order))
    phi = {base_to_orig[b]: i for i, b in enumerate(order)}
    n = 4
    steps = []
    for red in reversed(reductions):
        labels = tuple(range(n, n + len(red.removed)))
        phi.update(zip(red.removed, labels))
        steps.append(OperationStep(red.kind, phi[red.attach], labels))
        n += len(labels)
    cert = Certificate(tuple(steps), canonical_code(tree))
    try:
        verify_certificate(cert, tree)
    except TreedomError as exc:
        raise InternalError(f"peeled certificate does not replay: {exc}") from exc
    return cert


def decompose_to_p4(tree):
    """Find an operation certificate rebuilding the tree from P_4.

    Returns None when the tree does not attain the lower bound.  Otherwise
    the proof's case analysis (_proof_move) peels one validated operation
    at a time down to P_4, and the certificate is checked by
    verify_certificate before it is returned.  There is no fallback search:
    a member on which no proof move applies, or a certificate that does not
    replay, is a defect in the moves and raises InternalError.
    """
    _require_diameter(diameter(tree))
    if not _lower_bound_holds(tree):
        return None
    reductions = []
    cur = tree
    to_orig = {v: v for v in range(tree.n)}
    while cur.n > 4:
        peel = _proof_move(cur)
        if peel is None:
            raise InternalError(
                f"no proof move applies to a lower-bound member of order {cur.n}"
            )
        red, sub, old_to_new = peel
        reductions.append(
            _Reduction(
                red.kind,
                tuple(to_orig[x] for x in red.removed),
                to_orig[red.attach],
            )
        )
        to_orig = {new: to_orig[old] for old, new in old_to_new.items()}
        cur = sub
    return _forward_certificate(tree, cur, to_orig, reductions)


# ---------------------------------------------------------------------------
# Exhaustive forward search over operation sequences
# ---------------------------------------------------------------------------


def exhaustive_sequence_search(tree, max_len=3):
    """All distinct operation-kind sequences of length <= max_len that build
    a tree isomorphic to the given one from P_4, each realized by some
    choice of attachment vertices."""
    _require_diameter(diameter(tree))
    target_code = canonical_code(tree)
    target_n = tree.n
    reach = [{0}]
    for _ in range(max_len):
        reach.append(reach[-1] | {s + a for s in reach[-1] for a in (1, 2, 4)})
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
