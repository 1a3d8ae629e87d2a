"""The benchmark's golden values (perfbench/golden.json), checked in-process.

The benchmark checks every run against that file; these tests check the same
coefficient digests and verdict tables here, so that a change which moves a
coefficient, a verdict or an order used fails the test suite and not only the
benchmark.
The file is only read.
"""

import hashlib
import json
import pathlib
import re
from fractions import Fraction as F

import pytest

from qmodver import cli, lattice, specfun, verify
from qmodver.modgroup import SectorPair

GOLDEN = json.loads((pathlib.Path(__file__).parent.parent / "perfbench" / "golden.json")
                    .read_text())
ORDER = F(GOLDEN["exact_deep"]["order"])

BUILDERS = {
    "character-(0,1)": lambda n: lattice.character(SectorPair(2, 0, 1), n).series,
    "character-(1,1)": lambda n: lattice.character(SectorPair(2, 1, 1), n).series,
    "character-(1,0)": lambda n: lattice.character(SectorPair(2, 1, 0), n).series,
    "partition_gf": specfun.partition_gf,
    "dedekind_eta": specfun.dedekind_eta,
    "eisenstein-4": lambda n: specfun.eisenstein(4, n),
}
VERDICT_LINE = re.compile(r"^(PASS|XFAIL|FAIL|ABORT)\s+\[[^\]]+\] (.*?)(?:  residual=.*)?$")


def digest(series) -> str:
    """sha256 of the series JSON with sorted keys and no spaces."""
    text = json.dumps(series.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_series_digest(name):
    assert digest(BUILDERS[name](ORDER)) == GOLDEN["digests"][name]


def test_partition_number_100():
    assert str(specfun.partition_gf(101).coefficient_at(100)) == GOLDEN["p100"]


def test_check_all_verdicts(capsys):
    status = cli.main(["check", "--suite", "all"])
    rows = []
    for line in capsys.readouterr().out.splitlines():
        m = VERDICT_LINE.match(line)
        rows.append([m.group(1), m.group(2)] if m else ["UNPARSED", line])
    assert status == GOLDEN["suite_default"]["exit_code"]
    assert rows == GOLDEN["suite_default"]["verdicts"]


def test_exact_deep_table():
    """run_suite("identities") at the exact-deep order: verdicts, names and
    the order each report used (theta3 and theta4 use less than asked)."""
    deep = GOLDEN["exact_deep"]
    reports, status = verify.run_suite("identities", exact_order=deep["order"])
    rows = [[r.summary_line().split()[0], r.name, str(r.order_used)] for r in reports]
    assert status == deep["status"]
    assert rows == deep["reports"]
