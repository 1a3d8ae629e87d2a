#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the program as it stands.

    python3 perfbench/make_golden.py

The golden file pins the verdict tables and coefficient digests that every
benchmark run checks.  It was generated once at the commit that added the
benchmark; regenerate it only in a change that is meant to alter a verdict or
a coefficient, and say so in that change.
"""

import json

from run import CLI_CHECK_ALL, EXACT_N, GOLDEN, cli_verdicts, spawn, worker


def main():
    proc, _ = spawn(CLI_CHECK_ALL, check=False)
    identities = worker("identities", EXACT_N)
    digests = worker("digests", EXACT_N)
    golden = {
        "suite_default": {"exit_code": proc.returncode,
                          "verdicts": cli_verdicts(proc.stdout)},
        "exact_deep": {"order": EXACT_N, "status": identities["status"],
                       "reports": identities["reports"]},
        "digests": digests["digests"],
        "p100": digests["p100"],
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
