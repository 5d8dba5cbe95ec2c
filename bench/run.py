"""treedom benchmark: one workload (or all three) from the root of a checkout.

    python3 bench/run.py --workload census|witness|certify|all \
        --seed N --seconds S --trace 0|1

Runs the library from ``src/`` of the checkout in one process and one
thread.  Timed passes repeat, one after another, until about S seconds of
passes are measured; every output is checked by ``gate.py``.  Times are
reported in reference seconds (see calibrate.py).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("census", "witness", "certify")
SETUP_RUNS = 7
MAX_LOG_LINES = 40

# each fresh interpreter prints the seconds it spent importing and warming
# up; interpreter start-up itself does not depend on this repository
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.warm_up({workload!r})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description="treedom benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Each workload in its own fresh process, one after another, so that
    set-up and peak memory are measured per workload."""
    for name in WORKLOAD_NAMES:
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
        if code:
            return code
    return 0


class Log:
    def __init__(self):
        self.lines = 0

    def __call__(self, message):
        self.lines += 1
        if self.lines <= MAX_LOG_LINES:
            print(f"gate: {message}", file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "treedom" / "__init__.py").is_file():
        print(f"error: no treedom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treedom

    if Path(treedom.__file__).resolve().parent != SRC / "treedom":
        print(f"error: imported treedom from {treedom.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import calibrate
    import gate
    import layers
    import workloads
    from spans import Tracer

    name = args.workload
    make_inputs, op = workloads.WORKLOADS[name]
    reference = gate.load_reference()
    log = Log()
    rng = random.Random(f"gate:{args.seed}")
    totals = {"attempted": 0, "failed": 0}

    def check(inputs, outputs, digests=None):
        if name == "census":
            a, f = gate.check_census(outputs[0], rng, reference, log)
        else:
            a, f = gate.check_outputs(name, inputs, outputs, log, digests)
        totals["attempted"] += a
        totals["failed"] += f

    calibration = calibrate.Calibration()
    setup_code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH), workload=name)
    setup_raw, setup_ref = calibrate.setup_seconds(setup_code, ROOT, SETUP_RUNS)
    workloads.warm_up(name)
    inputs = make_inputs(args.seed)
    trees_in_pass = workloads.trees_per_pass(name, inputs)

    plain, traced, layer_passes = [], [], []  # seconds per pass
    tracer = Tracer()

    def measuring():
        last = plain[-1] + (traced[-1] if traced else 0.0)
        return sum(plain) + sum(traced) + last / 2 < args.seconds

    with calibration.sampling():
        while not plain or measuring():
            t0 = perf_counter()
            outputs = workloads.run_pass(op, inputs)
            t1 = perf_counter()
            plain.append(t1 - t0 - calibration.inside(t0, t1))
            check(inputs, outputs)
            if args.trace:
                first, counts = len(tracer.name), dict(tracer.counters)
                with calibration.paused():
                    layers.install(tracer)
                    try:
                        t0 = perf_counter()
                        outputs = workloads.run_pass(op, inputs)
                        traced.append(perf_counter() - t0)
                    finally:
                        tracer.restore()
                added = {k: v - counts.get(k, 0) for k, v in tracer.counters.items()}
                layer_passes.append(layers.pass_metrics(tracer, first, added, trees_in_pass))
                check(inputs, outputs)
    scale = calibration.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if name != "census":  # census digests are checked on every pass
        ref_inputs = gate.reference_inputs(make_inputs)
        check(ref_inputs, workloads.run_pass(op, ref_inputs), reference[name])

    setup_s = statistics.median(setup_ref)
    wall_raw = statistics.median(plain)
    wall_s = wall_raw * scale
    q1, q3 = quartiles(plain)
    attempted, failed = totals["attempted"], totals["failed"]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} plain, {len(traced)} traced")
    if args.trace:
        metrics = {m: (statistics.median(p[m] for p in layer_passes) * (scale if unit == "s" else 1), unit)
                   for m, unit, _ in layers.PER_LAYER if not m.startswith("bench.")}
        metrics["bench.trace_overhead_ratio"] = (statistics.median(traced) / wall_raw, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "vertices_per_s": (workloads.vertices(name, inputs) / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for m, (value, unit) in metrics.items():
        print(f"  {m:48s} {value:14.6g} {unit}")
    print(f"  {'measured pass: median, quartiles':48s} {wall_raw:.4f} s, "
          f"{q1:.4f} .. {q3:.4f} s over {len(plain)} passes")
    print(f"  {'measured set-up: median':48s} {statistics.median(setup_raw):.4f} s "
          f"over {len(setup_raw)} interpreters")
    print(f"  {'calibration loop: median':48s} {calibrate.REFERENCE_S / scale:.4f} s over "
          f"{len(calibration.loops)} loops (reference {calibrate.REFERENCE_S} s)")
    print(f"  {'failed_ratio':48s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
