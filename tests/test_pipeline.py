"""End-to-end report: synthesis retuning, prediction vs simulation."""

import csv
import json
import math

import pytest

from cycleavg import averaging, cli, flow
from cycleavg import (
    CountMismatchError,
    SpecError,
    average,
    example1,
    example2,
    positive_roots,
    retune_b,
    run_pipeline,
    vdp,
    with_epsilon,
)

VDP_ROOT = 2.0 / math.sqrt(3.0)


def test_retune_places_roots_on_targets():
    spec = example2().spec
    avg, coeffs = retune_b(spec, (1.0, 4.0))
    assert avg.keep == (False, True, True, True)
    assert abs(avg.integrals[0]) < 1e-12
    assert len(coeffs) == 3 and coeffs[-1] == 1.0
    assert avg.spec.b[0] == 1.0  # structural zero keeps the input b
    assert avg.spec.b[3] == pytest.approx(2.0, rel=1e-12)  # 2*pi*1/pi
    # the integrals do not depend on b, so reusing them is exact
    assert avg == average(avg.spec)
    found = [r.z for r in positive_roots(avg.h).roots]
    assert found == pytest.approx([1.0, 4.0], rel=1e-9)


@pytest.mark.parametrize("argv", [
    None,                                   # run_pipeline itself
    ["synthesize", "--preset", "example2", "--targets", "1", "4"],
    ["roots", "--preset", "example2"],
], ids=["run_pipeline", "synthesize", "roots"])
def test_each_integral_computed_once(monkeypatch, capsys, argv):
    calls = []
    real = averaging.angular_integral

    def counting(field, *args, **kwargs):
        calls.append(field)
        return real(field, *args, **kwargs)

    monkeypatch.setattr(averaging, "angular_integral", counting)
    spec = example2().spec
    if argv is None:
        run_pipeline(spec, targets=(1.0, 4.0), steps=512)
    else:
        assert cli.main(argv) == 0
        capsys.readouterr()
    assert len(calls) == len(spec.fields)


def test_retune_target_count_mismatch():
    with pytest.raises(SpecError):
        retune_b(example2().spec, (1.0,))
    with pytest.raises(SpecError):
        retune_b(example1().spec, (1.0, 4.0))


def test_pipeline_vdp_single_epsilon():
    out = run_pipeline(vdp().spec)
    assert out["lower_bound"] == 1
    assert out["synthesized_coefficients"] is None
    assert len(out["predicted_roots"]) == 1
    z = out["predicted_roots"][0]["z"]
    assert z == pytest.approx(VDP_ROOT, rel=1e-9)
    assert out["bracket"] == pytest.approx([0.3 * z, 3.0 * z])
    (run,) = out["runs"]
    assert run["epsilon"] == 0.01
    (fp,) = run["fixed_points"]
    assert abs(fp["r_star"] - z) <= 0.02
    assert fp["hyperbolic"] is True
    assert out["continuation"] == []
    json.dumps(out)  # report must be serializable as-is


def test_pipeline_deterministic():
    a = run_pipeline(vdp().spec)
    b = run_pipeline(vdp().spec)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_pipeline_continuation_rows():
    out = run_pipeline(vdp().spec, eps_values=(0.02, 0.01))
    assert [r["epsilon"] for r in out["runs"]] == [0.02, 0.01]
    (cont,) = out["continuation"]
    assert cont["predicted_root"] == pytest.approx(VDP_ROOT, rel=1e-9)
    gaps = [row["gap"] for row in cont["rows"]]
    assert len(gaps) == 2 and gaps[1] <= gaps[0] + 1e-9


def test_pipeline_count_mismatch_raises():
    with pytest.raises(CountMismatchError):
        run_pipeline(vdp().spec, bracket=(2.0, 3.0))


def test_pipeline_epsilon_validation():
    spec = vdp().spec
    with pytest.raises(ValueError):
        run_pipeline(spec, eps_values=(0.01, 0.02))
    with pytest.raises(ValueError):
        run_pipeline(spec, eps_values=(0.01, -0.005))
    with pytest.raises(ValueError):
        run_pipeline(with_epsilon(spec, -1.0))


def test_pipeline_example1():
    out = run_pipeline(example1().spec)
    assert out["lower_bound"] == 1
    assert out["nonzero"] == [False, True, True]
    assert len(out["runs"][0]["fixed_points"]) == 1


def test_pipeline_writes_scan_csv(monkeypatch, tmp_path):
    monkeypatch.setattr(flow, "SCAN_POINTS", 50)
    out = run_pipeline(vdp().spec, csv_dir=str(tmp_path))
    path = tmp_path / "scan_00.csv"
    assert path.exists()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r0", "r1", "displacement", "status"]
    assert len(rows) == 51
    r0, r1, disp, status = rows[1]
    assert float(r1) - float(r0) == pytest.approx(float(disp), abs=1e-15)
    assert status == "0"
    lo, hi = out["bracket"]
    assert float(rows[1][0]) == pytest.approx(lo)
    assert float(rows[-1][0]) == pytest.approx(hi)
