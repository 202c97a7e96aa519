#!/usr/bin/env python3
"""Print what a search did on the benchmark's instances, without times.

For each pool instance of the named workloads (by default the ones
``BENCHMARK.json`` declares), the canonical text is parsed and solved
with ``run_portfolio`` under ``Workload.config(index)``, as the
benchmark's untraced solve does.  The one JSON object printed holds, per
instance: the node and restart counts, each worker's node count and the
``repr`` of every incumbent value each worker found.  Two commits run the
same search when their outputs are byte-identical.  ``--pool N`` takes
the first N instances of each workload's family instead of its pool, to
judge a change that moves results on more instances than the benchmark
solves.

    python3 scripts/search_fingerprint.py --workload binqp_lin > a.json
    python3 scripts/search_fingerprint.py --workload parallel_w2 --pool 24 > b.json
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import sys
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from quadfw.ingest import parse_canonical
from quadfw.portfolio import run_portfolio
from workloads import WORKLOADS, pool


def fingerprint(name: str, size: int | None = None) -> dict:
    workload = WORKLOADS[name]
    if size is not None:
        workload = replace(workload, pool=size)
    out = {}
    for index, instance in enumerate(pool(workload)):
        report, traces = run_portfolio(parse_canonical(instance.text),
                                       workload.config(index), return_details=True)
        out[instance.name] = {
            "nodes": report.nodes,
            "restarts": report.restarts,
            "worker_nodes": [t.node_count for t in traces],
            "incumbents": [[repr(v) for _, v in t.events] for t in traces],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to fingerprint (repeatable; default: the ones "
                             "BENCHMARK.json declares)")
    parser.add_argument("--pool", type=int, metavar="N",
                        help="solve the first N instances of each workload's family "
                             "(default: the workload's pool)")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    names = args.workload or [w["name"] for w in declared]
    print(json.dumps({name: fingerprint(name, args.pool) for name in names}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
