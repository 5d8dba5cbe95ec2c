"""The three workloads: their seeded inputs and the operation a pass makes
on each input.

Inputs are made by the benchmark from its seed; the library only ever sees
the generated edge-list text (or, for the census, the order 14, carried in
``Input.n``).  A pass is a closed loop: one operation after another, as
``treedom census``, ``compute --output json`` and ``certify`` make them,
without file I/O.  An operation that raises yields an ``Error`` in place
of its output, and the gate counts it as failed.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass

from treedom import census, characterize, generators, solvers, trees
from treedom.errors import PreconditionViolatedError

CENSUS_MAX_N = 14
WITNESS_SIZES = (100, 200, 400)
WITNESS_SHAPES = ("prufer", "path", "comb", "spider8")
CERTIFY_SIZES = (80, 160, 320)
CERTIFY_SHAPES = ("grown-a", "grown-b", "qtree", "random")


@dataclass(frozen=True)
class Input:
    name: str
    n: int
    text: str


@dataclass(frozen=True)
class Error:
    message: str


# ---------------------------------------------------------------------------
# Shapes (edge lists on 0..n-1, built here so the inputs do not depend on
# the library's generators)
# ---------------------------------------------------------------------------


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _comb(n):
    k = n // 2
    return _path(k) + [(i, k + i) for i in range(k)]


def _spider(n, legs):
    base, extra = divmod(n - 1, legs)
    edges, nxt = [], 1
    for leg in range(legs):
        prev = 0
        for _ in range(base + (leg < extra)):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


def _prufer(n, rng):
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _q_tree(n):
    """q_tree(r) with the largest 2r + 3 <= n."""
    r = (n - 3) // 2
    return _path(r + 2) + [(j, r + 1 + j) for j in range(1, r + 2)]


def _grown(n, rng):
    """A lower-family member: P4 grown by random valid O1-O4 steps until it
    has exactly n vertices."""
    cur = generators.path(4)
    while cur.n < n:
        kinds = [k for k, size in generators.OP_SIZES.items() if size <= n - cur.n]
        kind = rng.choice(kinds)
        for v in rng.sample(range(cur.n), cur.n):
            try:
                cur = generators.apply_operation(cur, generators.OperationStep(kind, v))
                break
            except PreconditionViolatedError:
                continue
    return list(cur.edges)


def _relabeled(name, n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in edges]
    rng.shuffle(out)
    return Input(name, n, "".join(f"{u} {v}\n" for u, v in out))


def witness_inputs(seed):
    rng = random.Random(f"witness:{seed}")
    out = []
    for n in WITNESS_SIZES:
        for shape in WITNESS_SHAPES:
            if shape == "prufer":
                edges = _prufer(n, rng)
            elif shape == "path":
                edges = _path(n)
            elif shape == "comb":
                edges = _comb(n)
            else:
                edges = _spider(n, 8)
            out.append(_relabeled(f"{shape}-{n}", n, edges, rng))
    return out


def certify_inputs(seed):
    rng = random.Random(f"certify:{seed}")
    out = []
    for n in CERTIFY_SIZES:
        for shape in CERTIFY_SHAPES:
            if shape == "qtree":
                edges = _q_tree(n)
            elif shape == "random":
                edges = _prufer(n, rng)
            else:
                edges = _grown(n, rng)
            out.append(_relabeled(f"{shape}-{n}", len(edges) + 1, edges, rng))
    return out


def census_inputs(seed):
    """The census enumerates every tree, so its input ignores the seed."""
    return [Input(f"census-{CENSUS_MAX_N}", CENSUS_MAX_N, "")]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def census_op(inp):
    """``treedom census --max-n 14`` without file I/O: (csv, report json)."""
    records, report = census.run_census(inp.n)
    return census.records_to_csv(records), json.dumps(report, indent=2)


def witness_op(inp):
    """``treedom compute --output json``."""
    report = solvers.invariant_report(trees.parse_edge_list(inp.text))
    return json.dumps(report.to_json_dict(), indent=2)


def certify_op(inp):
    """``treedom certify``, with the certificate read back from its text and
    replayed by ``verify_certificate``."""
    tree = trees.parse_edge_list(inp.text)
    cert = characterize.decompose_to_p4(tree)
    if cert is None:
        return "NOT_MEMBER\n"
    text = characterize.certificate_to_text(cert)
    characterize.verify_certificate(characterize.certificate_from_text(text), tree)
    return text


def run_pass(op, inputs):
    """Outputs of one closed-loop pass."""
    outputs = []
    for inp in inputs:
        try:
            outputs.append(op(inp))
        except Exception as exc:  # the gate counts it as a failed operation
            outputs.append(Error(repr(exc)))
    return outputs


WORKLOADS = {
    "census": (census_inputs, census_op),
    "witness": (witness_inputs, witness_op),
    "certify": (certify_inputs, certify_op),
}


# OEIS A000055: number of trees (unlabeled) with n nodes
A000055 = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159,
}
CENSUS_ORDERS = range(3, CENSUS_MAX_N + 1)
CENSUS_TREES = sum(A000055[n] for n in CENSUS_ORDERS)


def vertices(workload, inputs):
    """Sum of n over the trees one pass handles."""
    if workload == "census":
        return sum(n * A000055[n] for n in CENSUS_ORDERS)
    return sum(inp.n for inp in inputs)


def trees_per_pass(workload, inputs):
    return CENSUS_TREES if workload == "census" else len(inputs)


def warm_up(workload):
    """One pass over a tiny input, so lazy set-up is paid before timing."""
    rng = random.Random(0)
    tiny = {
        "census": Input("census-6", 6, ""),
        "witness": _relabeled("comb-10", 10, _comb(10), rng),
        "certify": _relabeled("qtree-11", 11, _q_tree(11), rng),
    }[workload]
    run_pass(WORKLOADS[workload][1], [tiny])
