"""Time the builders of one or more source trees, in fresh processes.

    python tools/time_builders.py TREE [TREE ...] [--rounds N]

Each TREE is a checkout of this repository (its package is read from
TREE/src).  Every round starts one fresh interpreter per tree, in an order
that alternates from round to round, and each interpreter times every
builder below once after a warm-up build of E4 at order 60, each cold: the
memoized builders (eta, the partition series, the characters and the
closed forms) are emptied before each one.  The table gives
each builder's median over the rounds, in ms; with two trees it also counts
the rounds in which the second tree was faster.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# label -> the statement the child times; specfun, lattice, SectorPair and
# run_suite are in scope
BUILDERS = {
    "E2 at 1500": "specfun.eisenstein(2, 1500)",
    "E400 at 2000": "specfun.eisenstein(400, 2000)",
    "Q2(1,2,0,1) at 400": "specfun.q_twisted(2, specfun.TwistParams(1, 2, 0, 1), 400)",
    "Q2(0,1,1,3) at 400": "specfun.q_twisted(2, specfun.TwistParams(0, 1, 1, 3), 400)",
    "Q2(1,2,1,2) at 1500": "specfun.q_twisted(2, specfun.TwistParams(1, 2, 1, 2), 1500)",
    'run_suite("qk")': 'run_suite("qk")',
    'run_suite("eisenstein")': 'run_suite("eisenstein")',
    **{f"eta_theta_form{pair} at {order}":
       f"lattice.eta_theta_form(SectorPair(2, *{pair}), {order})"
       for order in (120, 1500) for pair in ((0, 1), (1, 1), (1, 0))},
    'run_suite("identities", exact_order=120)': 'run_suite("identities", exact_order=120)',
}

CHILD = """
import json, sys, time
from qmodver import lattice, specfun
from qmodver.modgroup import SectorPair
from qmodver.verify import run_suite
specfun.eisenstein(4, 60)
times = {}
for label, stmt in json.loads(sys.argv[1]).items():
    for memo in (specfun.dedekind_eta, specfun.partition_gf, lattice.character,
                 lattice.eta_theta_form):
        memo.cache_clear()
    t0 = time.perf_counter()
    eval(stmt)
    times[label] = time.perf_counter() - t0
print(json.dumps(times))
"""


def time_tree(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(BUILDERS)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", help="source trees to compare")
    parser.add_argument("--rounds", type=int, default=8, help="fresh processes per tree")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    runs = {tree: [] for tree in args.trees}
    for r in range(args.rounds):
        order = args.trees if r % 2 == 0 else args.trees[::-1]
        for tree in order:
            runs[tree].append(time_tree(tree))

    header = ["build"] + [os.path.basename(os.path.abspath(t)) or t for t in args.trees]
    if len(args.trees) == 2:
        header.append("second faster")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for label in BUILDERS:
        row = [label] + [f"{statistics.median(t[label] for t in runs[tree]) * 1e3:.2f} ms"
                         for tree in args.trees]
        if len(args.trees) == 2:
            a, b = runs[args.trees[0]], runs[args.trees[1]]
            wins = sum(y[label] < x[label] for x, y in zip(a, b))
            row.append(f"{wins} of {args.rounds}")
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
