"""Write reference.json: digests of the outputs of the code in this checkout.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the census rows, the witness
JSON or the certificate text, and record that change in CHANGES.md: the
gate compares every later run against these digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402


def main():
    (inp,) = workloads.census_inputs(gate.REFERENCE_SEED)
    csv_text, report_text = workloads.census_op(inp)
    ref = {"census": {
        "max_n": workloads.CENSUS_MAX_N,
        "rows_by_order": {n: gate.rows_digest(lines)
                          for n, lines in gate.census_rows(csv_text).items()},
        "report": gate.sha256(report_text),
    }}
    for name in ("witness", "certify"):
        make_inputs, op = workloads.WORKLOADS[name]
        ref[name] = {inp.name: gate.sha256(op(inp)) for inp in gate.reference_inputs(make_inputs)}
    gate.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
