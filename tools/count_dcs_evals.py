"""Count the dcs evaluations of one pass of the angular-transport quadrature ops.

    python3 tools/count_dcs_evals.py [--root CHECKOUT]

Imports ptdrsc and the benchmark's workloads from CHECKOUT (default: the
checkout this script is in), wraps ``xsec.screened_rutherford_dcs`` with a
counter before the ops are built, runs each of the workload's quadrature ops
at seed ``SEED`` once and prints one JSON line with the op and evaluation
counts.  The count repeats exactly for a given source tree, so running it on
two checkouts compares the work their quadratures do; it says nothing of
speed.
"""

import argparse
import json
import random
import sys
from pathlib import Path

SEED = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    from ptdrsc import xsec
    import workloads

    calls = 0
    dcs = xsec.screened_rutherford_dcs

    def counting_dcs(model, theta):
        nonlocal calls
        calls += 1
        return dcs(model, theta)

    xsec.screened_rutherford_dcs = counting_dcs
    ops = [op for op in workloads.angular_transport(random.Random(SEED)).ops
           if op.kind == "quadrature"]
    for op in ops:
        op.run()
    print(json.dumps({"root": str(root), "seed": SEED, "ops": len(ops),
                      "dcs_evaluations": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
