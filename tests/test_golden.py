"""CLI documents against golden copies, so refactors keep the numbers.

`golden_cli.json` holds, for each argv, the exit code and the parsed
stdout document: `integrals`, `averaged` and `roots` for every preset,
plus one `synthesize`, two `repro` (example1 and `lienard --m 7`, whose
five fields run the widest generated kernel), four `simulate` (an
epsilon sweep and `--r0` samples of vdp, of example2 on the graded mesh
and of lienard6 at 1,024 steps on packed rows), one `continuation`,
one `pipeline` (lienard5 retuned to 0.8 and 1.8 at eps 0.005, whose
scan loses 60 of its 200 radii), `classify --scan 1` and one
`classify --system` per canonicalization step (duplicate merge, swap,
time reversal, x^s strip, y^u strip, x-power ordering).  Exit codes,
keys, strings, ints and bools must match exactly; floats within 1e-12
(relative or absolute), so that another libm does not fail the
comparison, except that a golden 0.0 (a structural zero) matches only
0.0.
"""

import json
import math
import os

import pytest

from cycleavg.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden_cli.json"),
          encoding="utf-8") as _fh:
    CASES = json.load(_fh)["cases"]


def assert_matches(got, want, path="result"):
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12,
                            abs_tol=1e-12 if want else 0.0), (
            f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for idx, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{idx}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r}"


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_matches_golden(capsys, case):
    rc = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert rc == case["rc"]
    assert_matches(json.loads(out), case["stdout"])
