"""Correctness gate: every operation a pass makes is checked here, after the
timed region, and counted as attempted and, if any check fails, as failed.

Two kinds of reference are used:

* independent ones: tree counts per order (OEIS A000055), the brute-force
  oracle on a seeded sample of census rows, the set predicates plus a size
  check on every witness, and a replay of every certificate by this
  file's own code with its own canonical form;
* digests of the outputs of the code the benchmark was written against
  (``reference.json``): census CSV rows sorted by canon per order, the
  census report, and the witness JSON and certificate text of the inputs
  made from ``REFERENCE_SEED``.

The census report's ``upper_characterization_mismatches`` (547 up to
n = 14) is a real counterexample to the paper's claim: it is checked as
expected output, not counted as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import deque
from pathlib import Path

from treedom import solvers, trees
from treedom.errors import TreedomError
from workloads import A000055, CENSUS_ORDERS, CENSUS_TREES, Error

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
# witness and certify inputs of REFERENCE_SEED up to this order are checked
# against digests in every run
REFERENCE_MAX_N = 200
BRUTE_FORCE_SAMPLE = 30

EXPECTED_COUNTERS = {
    "bound_sandwich_violations": 0,
    "lower_characterization_mismatches": 0,
    "upper_characterization_mismatches": 547,
    "distance_remark_violations": 0,
    "minimality_mismatches": 0,
}
CSV_HEADER = ["canon", "n", "diam", "leaves", "beta", "gamma_t", "tcoi",
              "t_beta", "t_l", "structural_tl", "certified"]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Independent tree helpers
# ---------------------------------------------------------------------------


def parse_edges(text):
    edges = [tuple(int(x) for x in line.split()) for line in text.splitlines() if line.strip()]
    return len(edges) + 1, edges


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs(adj, src):
    dist = [-1] * len(adj)
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def diameter(adj):
    d0 = _bfs(adj, 0)
    return max(_bfs(adj, d0.index(max(d0))))


def _centers(adj):
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    alive = n
    while alive > 2:
        alive -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return layer


def _rooted(adj, root):
    parent = {root: None}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    kids = {u: [] for u in order}
    for u in reversed(order):
        code = b"(" + b"".join(sorted(kids[u])) + b")"
        if parent[u] is None:
            return code
        kids[parent[u]].append(code)


def canonical(adj):
    """AHU code rooted at the center, smaller of the two when bicentral:
    the same encoding the library's canonical_code promises."""
    return min(_rooted(adj, c) for c in _centers(adj))


def decode_canon(code):
    """Edges of the rooted tree a parenthesis code describes."""
    edges, stack, n = [], [], 0
    for ch in code:
        if ch == ord("(") and (stack or not n):
            if stack:
                edges.append((stack[-1], n))
            stack.append(n)
            n += 1
        elif ch == ord(")") and stack:
            stack.pop()
        else:
            raise ValueError("not the parenthesis code of one rooted tree")
    if stack:
        raise ValueError("unbalanced parenthesis code")
    return n, edges


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


def _cell(x):
    return None if x == "" else x


def _row_errors(row, code):
    """Consistency of one census row with itself and with its decoded tree."""
    n, diam, leaves, beta = (int(row[k]) for k in ("n", "diam", "leaves", "beta"))
    gamma_t, tcoi = int(row["gamma_t"]), int(row["tcoi"])
    m, edges = decode_canon(code)
    adj = adjacency(m, edges)
    if m != n or canonical(adj) != code:
        return "canon is not the canonical code of an n-vertex tree"
    if diameter(adj) != diam or sum(len(a) == 1 for a in adj) != leaves:
        return "diameter or leaf count disagrees with the tree"
    flags = [_cell(row[k]) for k in ("t_beta", "t_l", "structural_tl", "certified")]
    if diam < 3:
        return None if flags == [None] * 4 else "family flags set below diameter 3"
    if None in flags:
        return "family flag missing"
    t_beta, t_l, _, certified = (f == "true" for f in flags)
    if not n - beta <= tcoi <= n - leaves:
        return "n - beta <= tcoi <= n - leaves fails"
    if t_beta != (tcoi == n - beta) or t_l != (tcoi == n - leaves):
        return "family flag disagrees with the values"
    if certified != t_beta:
        return "certificate found disagrees with the lower bound"
    return None


def _brute_force_errors(row, code):
    m, edges = decode_canon(code)
    tree = trees.Tree(m, tuple(edges))
    for which in ("beta", "gamma_t", "tcoi"):
        if solvers.brute_force(tree, which)[0] != int(row[which]):
            return f"{which} differs from the brute-force oracle"
    return None


def census_rows(csv_text):
    """{order: rows sorted by canon}, or None if the header differs."""
    reader = csv.reader(io.StringIO(csv_text))
    if next(reader, None) != CSV_HEADER:
        return None
    by_order = {}
    for line in reader:
        by_order.setdefault(line[1], []).append(line)
    for lines in by_order.values():
        lines.sort()
    return by_order


def rows_digest(lines):
    return sha256("\n".join(",".join(x) for x in lines))


def check_census(output, rng, reference, log):
    """(attempted, failed) for one census pass: one per row, plus the report."""
    attempted = CENSUS_TREES + 1
    if isinstance(output, Error):
        log(f"census pass raised {output.message}")
        return attempted, attempted
    csv_text, report_text = output
    by_order = census_rows(csv_text)
    if by_order is None:
        log("census CSV header differs")
        return attempted, attempted
    bad, seen = set(), set()
    for n_text, lines in by_order.items():
        if rows_digest(lines) != reference["census"]["rows_by_order"].get(n_text):
            log(f"census rows of order {n_text} differ from the reference digest")
            bad.update(id(x) for x in lines)
        for x in lines:
            row = dict(zip(CSV_HEADER, x))
            try:
                code = bytes.fromhex(row["canon"])
                why = "duplicate canon" if row["canon"] in seen else _row_errors(row, code)
            except (ValueError, KeyError) as exc:
                why = f"unreadable row: {exc!r}"
            seen.add(row["canon"])
            if why:
                log(f"census row {row['canon']}: {why}")
                bad.add(id(x))
    rows = [x for lines in by_order.values() for x in lines]
    for x in rng.sample(rows, min(BRUTE_FORCE_SAMPLE, len(rows))):
        row = dict(zip(CSV_HEADER, x))
        why = None if id(x) in bad else _brute_force_errors(row, bytes.fromhex(row["canon"]))
        if why:
            log(f"census row {row['canon']}: {why}")
            bad.add(id(x))
    failed = len(bad)
    for n in CENSUS_ORDERS:
        present = len(by_order.get(str(n), ()))
        if present != A000055[n]:
            log(f"census has {present} trees of order {n}, A000055 gives {A000055[n]}")
            failed += max(0, A000055[n] - present)
    report = json.loads(report_text)
    if (report.get("counters") != EXPECTED_COUNTERS
            or report.get("tree_count") != CENSUS_TREES
            or sha256(report_text) != reference["census"]["report"]):
        log("census report differs from the expected counters or the reference digest")
        failed += 1
    return attempted, min(failed, attempted)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


def witness_errors(inp, output):
    if isinstance(output, Error):
        return f"raised {output.message}"
    n, edges = parse_edges(inp.text)
    tree = trees.Tree(n, tuple(edges))
    d = json.loads(output)
    if d["n"] != n:
        return "wrong n"
    sets = {k: d[f"{k}_witness"] for k in ("beta", "gamma_t", "tcoi")}
    if any(s != sorted(set(s)) for s in sets.values()):
        return "witness is not a sorted vertex list"
    for k, pred in (("beta", solvers.is_independent_set),
                    ("gamma_t", solvers.is_total_dominating_set),
                    ("tcoi", solvers.is_tcoi_set)):
        if not pred(tree, sets[k]) or len(sets[k]) != d[k]:
            return f"{k} witness fails its predicate or has the wrong size"
    leaves = sum(len(a) == 1 for a in tree.adj)
    if not n - d["beta"] <= d["tcoi"] <= n - leaves:
        return "n - beta <= tcoi <= n - leaves fails"
    return None


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

# edges each operation adds, between roles: 0 is the attachment vertex and
# 1, 2, ... are the new vertices in label order
_ATTACH = {
    "O1": ((0, 1),),
    "O2": ((0, 1), (1, 2)),
    "O3": ((0, 1), (1, 2), (2, 3), (3, 4)),
    "O4": ((0, 2), (1, 2), (2, 3), (3, 4)),
}


def replay(text):
    """(adjacency, recorded canon) of a certificate replayed from P4."""
    lines = text.splitlines()
    if lines[0] != "base=P4" or not lines[-1].startswith("canon="):
        raise ValueError("certificate must run from base=P4 to canon=")
    edges = [(0, 1), (1, 2), (2, 3)]
    n = 4
    for line in lines[1:-1]:
        kind, attach, new = line.split()
        a = int(attach.removeprefix("attach="))
        labels = [int(x) for x in new.removeprefix("new=").split(",")]
        added = _ATTACH[kind]
        if labels != list(range(n, n + added[-1][1])) or not 0 <= a < n:
            raise ValueError(f"bad step {line!r}")
        role = [a] + labels
        edges += [(role[x], role[y]) for x, y in added]
        n += len(labels)
    return adjacency(n, edges), bytes.fromhex(lines[-1].removeprefix("canon="))


def certify_errors(inp, output):
    if isinstance(output, Error):
        return f"raised {output.message}"
    n, edges = parse_edges(inp.text)
    if inp.name.startswith("random"):
        tree = trees.Tree(n, tuple(edges))
        beta = solvers.invariant_value(tree, "beta")
        member = solvers.invariant_value(tree, "tcoi") == n - beta
    else:  # grown by valid operations, or q_tree: members by construction
        member = True
    if output == "NOT_MEMBER\n":
        return "a member was reported NOT_MEMBER" if member else None
    if not member:
        return "a certificate for a non-member"
    try:
        adj, code = replay(output)
    except (ValueError, KeyError, IndexError) as exc:
        return f"certificate does not replay: {exc!r}"
    if canonical(adj) != code or code != canonical(adjacency(n, edges)):
        return "replayed tree is not the input tree"
    return None


CHECKS = {"witness": witness_errors, "certify": certify_errors}


def check_outputs(workload, inputs, outputs, log, digests=None):
    """(attempted, failed) over one pass of witness or certify; digests maps
    input names to the reference digest of their output."""
    failed = 0
    for inp, out in zip(inputs, outputs, strict=True):
        try:
            why = CHECKS[workload](inp, out)
        except (ValueError, KeyError, TypeError, TreedomError) as exc:
            why = f"unreadable output: {exc!r}"
        if why is None and digests is not None and sha256(out) != digests[inp.name]:
            why = "output differs from the reference digest"
        if why:
            log(f"{workload} {inp.name}: {why}")
            failed += 1
    return len(inputs), failed


def reference_inputs(make_inputs):
    return [i for i in make_inputs(REFERENCE_SEED) if i.n <= REFERENCE_MAX_N]
