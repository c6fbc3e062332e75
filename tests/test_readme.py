"""The README's Python examples run as written, and the public API resolves."""

import math
import re
from pathlib import Path
from types import ModuleType

import pytest

import cycleavg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run_and_give_the_documented_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 5
    # one namespace, in order: the return-map block uses the vdp `spec`
    ns = {}
    for index, block in enumerate(blocks):
        exec(compile(block, str(README), "exec"), ns)
        if index == 1:
            report = ns["report"]
            assert report.roots[0].z == pytest.approx(2.0 / math.sqrt(3.0),
                                                      rel=1e-12)
            assert report.roots[0].interval_degree == -1
            assert report.descartes_bound == 1
            assert ns["avg"].lower_bound == 1

    assert cycleavg.synthesize_coefficients(
        (0.5, 1.0, 2.0), targets=(1.0, 4.0)) == pytest.approx((6.0, -7.0, 1.0))
    roots = cycleavg.positive_roots(ns["avg"].h).roots
    assert [r.z for r in roots] == pytest.approx([1.0, 4.0], rel=1e-9)
    c = ns["c"]
    assert (c.r_star, c.map_derivative, c.hyperbolic) == (
        pytest.approx(1.154695, abs=1e-6), pytest.approx(0.939, abs=1e-3), True)
    cert = ns["cert"]
    assert cert.property == "P3" and cert.case_label == "(iii)"
    assert len(ns["certs"]) == 110592


def test_public_names_resolve_and_hold_no_module():
    assert len(set(cycleavg.__all__)) == len(cycleavg.__all__)
    for name in cycleavg.__all__:
        assert not isinstance(getattr(cycleavg, name), ModuleType), name
