"""CLI: JSON document shape, determinism, exit-code mapping."""

import json
import math
import os
import subprocess
import sys

import pytest

import cycleavg

from cycleavg import (
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    example1,
    linear_field,
    monomial,
    spec_to_json,
    vdp,
)
from cycleavg import cli, monomials
from cycleavg.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def test_integrals_document_shape(capsys):
    rc, out = run(capsys, "integrals", "--preset", "vdp")
    assert rc == 0
    doc = json.loads(out)
    assert doc["header"] == {"tool": "cycleavg", "version": "0.1.0"}
    result = doc["result"]
    assert result["alphas"] == ["1/1", "3/1"]
    assert result["lower_bound"] == 1
    assert result["nonzero"] == [True, True]
    assert out.endswith("\n")


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "roots", "--preset", "example1")
    _, second = run(capsys, "roots", "--preset", "example1")
    assert first == second
    keys = list(json.loads(first))
    assert keys == sorted(keys)


def test_out_flag_writes_identical_document(capsys, tmp_path):
    path = tmp_path / "doc.json"
    rc, out = run(capsys, "integrals", "--preset", "vdp")
    rc2 = main(["--out", str(path), "integrals", "--preset", "vdp"])
    assert rc == rc2 == 0
    assert path.read_text(encoding="utf-8") == out


def test_spec_file_round_trip(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(example1().spec)), encoding="utf-8")
    rc, out = run(capsys, "integrals", "--spec", str(path))
    assert rc == 0
    _, via_preset = run(capsys, "integrals", "--preset", "example1")
    assert out == via_preset


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_commands_are_looked_up_when_main_is_called(capsys, monkeypatch):
    # A tracer wraps `cli.cmd_*` on the module after a warm-up call; the
    # cached parser must not hold on to the commands it saw first.
    assert run(capsys, "integrals", "--preset", "vdp")[0] == 0
    calls = []

    def spy(args):
        calls.append(args.preset)
        return {"spied": True}

    monkeypatch.setattr(cli, "cmd_integrals", spy)
    rc, out = run(capsys, "integrals", "--preset", "example1")
    assert rc == 0 and calls == ["example1"]
    assert json.loads(out)["result"] == {"spied": True}


def test_failed_calls_leave_the_next_call_as_a_first_call(capsys):
    argv = ["simulate", "--preset", "vdp", "--r0", "1.0", "--steps", "512"]
    with pytest.raises(SystemExit) as info:          # argparse rejects it
        main(["simulate", "--preset", "vdp", "--r0"])
    assert info.value.code == 2
    assert main(["simulate", "--preset", "vdp", "--r0", "nan"]) == 2
    capsys.readouterr()
    rc, out = run(capsys, *argv)
    src = os.path.dirname(os.path.dirname(cycleavg.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cycleavg.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert rc == 0 and out == fresh.stdout and fresh.stderr == ""


def test_runtime_never_imports_quadrature():
    # the fixed panel rule serves the tests' line-integral oracle only
    src = os.path.dirname(os.path.dirname(cycleavg.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys, cycleavg; from cycleavg import cli; "
         "assert cli.main(['repro', 'vdp']) == 0; "
         "assert 'cycleavg.quadrature' not in sys.modules"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert fresh.returncode == 0, fresh.stderr


def test_roots_example1(capsys):
    rc, out = run(capsys, "roots", "--preset", "example1")
    assert rc == 0
    roots = json.loads(out)["result"]["roots"]
    assert len(roots) == 1
    assert roots[0]["z"] == pytest.approx(1.2384, abs=1e-3)
    assert roots[0]["interval_degree"] == -1


def test_synthesize_example2(capsys):
    rc, out = run(capsys, "synthesize", "--preset", "example2",
                  "--targets", "1", "4")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["targets"] == [1.0, 4.0]
    assert len(result["synthesized_coefficients"]) == 3
    assert result["b"][3] == pytest.approx(2.0, rel=1e-9)
    assert result["spec"]["orientation"] == "ccw"


def test_simulate_single_sample(capsys):
    rc, out = run(capsys, "simulate", "--preset", "vdp", "--r0", "1.0",
                  "--steps", "256")
    assert rc == 0
    sample = json.loads(out)["result"]["sample"]
    assert sample["r0"] == 1.0
    assert sample["displacement"] == pytest.approx(sample["r1"] - 1.0)
    assert sample["error_estimate"] < 1e-8


def test_simulate_fixed_points(capsys):
    rc, out = run(capsys, "simulate", "--preset", "vdp", "--steps", "512")
    assert rc == 0
    runs = json.loads(out)["result"]["runs"]
    (fp,) = runs[0]["fixed_points"]
    assert fp["r_star"] == pytest.approx(2.0 / math.sqrt(3.0), abs=0.02)


def test_classify_inline_system(capsys):
    system = '{"a":1,"p":0,"q":1,"b":-1,"i":1,"j":0,"c":1,"k":2,"l":1}'
    rc, out = run(capsys, "classify", "--system", system)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["property"] == "P5"
    assert all(ch["ok"] for ch in result["checks"])


def test_classify_system_from_file(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"a":0,"p":0,"q":0,"b":1,"i":1,"j":0,"c":0,"k":0,"l":0}',
                    encoding="utf-8")
    rc, out = run(capsys, "classify", "--system", str(path))
    assert rc == 0
    assert json.loads(out)["result"]["property"] == "P3"


def test_classify_coefficient_underflow(capsys):
    # b*c underflows to 0; the system is valid and gets a certificate
    system = '{"a":1,"p":1,"q":0,"b":1e-200,"i":1,"j":0,"c":1e-200,"k":0,"l":1}'
    rc, out = run(capsys, "classify", "--system", system)
    assert rc == 0
    assert json.loads(out)["result"]["property"] == "P3"


def test_classify_scan_counts(capsys):
    rc, out = run(capsys, "classify", "--scan", "1")
    assert rc == 0
    scan = json.loads(out)["result"]["scan"]
    assert scan["total"] == 27 * 64
    assert sum(scan["counts"].values()) == scan["total"]
    assert set(scan["counts"]) <= {"P1", "P2", "P3", "P4", "P5", "P6"}


@pytest.mark.parametrize("max_exp, counts", [
    (1, {"P1": 64, "P2": 124, "P3": 1348, "P4": 176, "P5": 8, "P6": 8}),
    (3, {"P1": 10904, "P2": 20956, "P3": 73380, "P4": 4416, "P5": 336,
         "P6": 600}),
])
def test_classify_scan_calls_classify_once_per_system(capsys, monkeypatch,
                                                      max_exp, counts):
    # A benchmark counts `classify` calls by wrapping the function in every
    # loaded cycleavg module after import, and requires one per system; a
    # scan that classified each normal form once, or that bound `classify`
    # at import, would read fewer here.
    real = monomials.classify
    calls = []

    def counted(system):
        calls.append(None)
        return real(system)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "cycleavg":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    rc, out = run(capsys, "classify", "--scan", str(max_exp))
    assert rc == 0
    scan = json.loads(out)["result"]["scan"]
    assert len(calls) == scan["total"] == 27 * (max_exp + 1) ** 6
    assert scan["counts"] == counts


def test_classify_scan_4_counts(capsys):
    rc, out = run(capsys, "classify", "--scan", "4")
    assert rc == 0
    scan = json.loads(out)["result"]["scan"]
    assert scan["total"] == 27 * 5 ** 6
    assert scan["counts"] == {"P1": 47_272, "P2": 92_736, "P3": 265_639,
                              "P4": 13_100, "P5": 1_040, "P6": 2_088}


def test_repro_example1(capsys):
    rc, out = run(capsys, "repro", "example1", "--steps", "512")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["lower_bound"] == 1
    assert len(result["runs"][0]["fixed_points"]) == 1


def test_exit_code_2_on_bad_input(capsys):
    assert main(["integrals"]) == 2
    assert main(["integrals", "--preset", "nope"]) == 2
    assert main(["integrals", "--preset", "vdp", "--spec", "x.json"]) == 2
    assert main(["classify"]) == 2
    assert main(["classify", "--system", "{not json"]) == 2
    assert main(["classify", "--system", '{"a": 1}']) == 2
    assert main(["classify", "--scan", "-1"]) == 2
    assert main(["continuation", "--preset", "vdp", "--eps", "0.01"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "roots --preset vdp --bracket 2 1",
    "simulate --preset vdp --steps 100 --r0 1",
    "simulate --preset vdp --r0 -1",
    "simulate --preset vdp --bracket 2 1 --steps 512",
    "pipeline --preset vdp --steps 100",
    "continuation --preset vdp --eps 0.01 0.02 --steps 512",
    "continuation --preset vdp --eps 0.02 0.01 --root -1 --steps 512",
    "repro lienard --m 3",
    "simulate --preset vdp --eps nan --steps 512",
    "simulate --preset vdp --eps inf --steps 512",
    "simulate --preset vdp --eps -0.01 --steps 512",
    "simulate --preset vdp --eps 0.01 0.02 --steps 512",
    "simulate --preset vdp --bracket 0.5 inf --steps 512",
    "simulate --preset vdp --r0 nan",
    "simulate --preset vdp --r0 inf",
    "simulate --preset vdp --r0 1 --eps 0.01 0.5",
    "simulate --preset vdp --r0 1 --bracket 0.5 2",
    "repro vdp --m 5",
    "pipeline --preset vdp --eps nan --steps 512",
    "continuation --preset vdp --eps 0.02 nan --steps 512",
    "continuation --preset vdp --eps 0.02 0.01 --root nan --bracket 0.5 2 "
    "--steps 512",
    "roots --preset vdp --bracket 1 inf",
    "synthesize --preset vdp --targets nan",
    "pipeline --preset vdp --tol nan --steps 512",
    "pipeline --preset vdp --tol inf --steps 512",
    "simulate --preset vdp --tol nan --steps 512",
    "simulate --preset vdp --r0 1 --tol nan",
    'classify --system {"a":NaN,"p":1,"q":0,"b":1,"i":0,"j":1,"c":1,"k":0,"l":0}',
    'classify --system {"a":1,"p":1,"q":0,"b":Infinity,"i":0,"j":1,"c":1,"k":0,"l":0}',
    'classify --system {"a":"1.5","p":1,"q":0,"b":1,"i":0,"j":1,"c":1,"k":0,"l":0}',
    'classify --system {"a":1.5,"p":1,"q":0,"b":true,"i":0,"j":1,"c":1,"k":0,"l":0}',
])
def test_exit_code_2_on_bad_numeric_argument(capsys, argv):
    rc = main(argv.split())
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_exit_code_2_on_non_finite_spec(capsys, tmp_path):
    doc = spec_to_json(vdp().spec)
    doc["b"][1] = math.nan
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = run(capsys, "averaged", "--spec", str(path))
    assert rc == 2 and out == ""


def _set_number(doc, key, value):
    if key == "b":
        doc["b"][0] = value
    elif key == "epsilon":
        doc["epsilon"] = value
    else:
        doc["fields"][0]["f"][0]["c"] = value


@pytest.mark.parametrize("key", ["b", "epsilon", "c"])
@pytest.mark.parametrize("value", [None, [1], True, "2"],
                         ids=["null", "array", "bool", "string"])
def test_exit_code_2_on_malformed_spec_number(capsys, tmp_path, key, value):
    # the spec wire format checks its numbers as MonomialSystem does
    doc = spec_to_json(vdp().spec)
    _set_number(doc, key, value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["integrals", "--spec", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_spec_numbers_load_as_ints_or_floats(capsys, tmp_path):
    path = tmp_path / "spec.json"
    outputs = []
    for number in (1, 1.0):
        doc = spec_to_json(vdp().spec)
        doc["b"] = [number, -number]
        _set_number(doc, "c", number)
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out = run(capsys, "integrals", "--spec", str(path))
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_small_integral_is_kept_not_refused(capsys, tmp_path):
    # (a + d) * pi = 3.14e-9 is small but not a structural zero
    spec = PerturbationSpec(fields=(linear_field(5e-10, 0.0, 0.0, 5e-10),),
                            b=(1.0,), epsilon=0.01, orientation="ccw")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)), encoding="utf-8")
    rc, out = run(capsys, "integrals", "--spec", str(path))
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["nonzero"] == [True] and result["lower_bound"] == 0


def _integrals_beside_vdp_linear_field(capsys, tmp_path, alpha, f_terms):
    """The `integrals` result for vdp's linear field plus one more field."""
    field = HomogeneousField(tuple(f_terms), (), alpha)
    spec = PerturbationSpec(fields=(vdp().spec.fields[0], field), b=(1.0, 1.0),
                            epsilon=0.01, orientation="ccw")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)), encoding="utf-8")
    rc, out = run(capsys, "integrals", "--spec", str(path))
    assert rc == 0
    return json.loads(out)["result"]


@pytest.mark.parametrize("c", [1.0, 1e5, 1e6, 1e7, 1e12])
def test_cancelling_cubic_is_zero_at_every_scale(capsys, tmp_path, c):
    # c (x^3 - 3 x y^2) integrates c (cos^4 - 3 cos^2 sin^2): exactly 0
    result = _integrals_beside_vdp_linear_field(
        capsys, tmp_path, 3, [monomial(c, 3, 0), monomial(-3.0 * c, 1, 2)])
    assert result["integrals"][1] == 0.0
    assert result["nonzero"] == [True, False] and result["lower_bound"] == 0


@pytest.mark.parametrize("c", [1.0, 1e7])
def test_cancelling_signed_quadratic_across_parities(capsys, tmp_path, c):
    # c (sgn(x) x^2 - 2 sgn(x)|x||y|) integrates 4c (M(3, 0) - 2 M(2, 1))
    # = 4c (2/3 - 2/3): rational moments of both parities of p cancel
    result = _integrals_beside_vdp_linear_field(
        capsys, tmp_path, 2, [SignedPowerTerm(c, 2, 0, True, False),
                              SignedPowerTerm(-2.0 * c, 1, 1, True, False)])
    assert result["integrals"][1] == 0.0
    assert result["nonzero"] == [True, False] and result["lower_bound"] == 0


@pytest.mark.parametrize("x_exp, y_exp, c", [
    (31, 30, 1.0), (37, 36, 1.0), (200, 200, 1.0), (1101, 1100, 1e300)],
    ids=["degree61", "degree73", "degree400", "degree2201"])
def test_small_high_degree_integral_is_kept(capsys, tmp_path, x_exp, y_exp, c):
    # c sgn(x)|x|^a |y|^b integrates 4c M(a + 1, b) > 0, tiny at high
    # degree; at degree 2201 M ~ 1e-333 is below the smallest double
    result = _integrals_beside_vdp_linear_field(
        capsys, tmp_path, x_exp + y_exp,
        [SignedPowerTerm(c, x_exp, y_exp, True, False)])
    assert result["integrals"][1] > 0.0
    assert result["nonzero"] == [True, True] and result["lower_bound"] == 1


def test_loose_residual_tol_leaves_integrals_alone(capsys):
    rc, out = run(capsys, "simulate", "--preset", "vdp", "--tol", "0.1",
                  "--steps", "512")
    assert rc == 0
    (run_doc,) = json.loads(out)["result"]["runs"]
    assert len(run_doc["fixed_points"]) == 1


def test_continuation_tol_keeps_predicted_root(capsys):
    roots = []
    for extra in ([], ["--tol", "1e-6"]):
        rc, out = run(capsys, "continuation", "--preset", "vdp", "--eps",
                      "0.02", "0.01", "--steps", "512", *extra)
        assert rc == 0
        roots.append(json.loads(out)["result"]["predicted_root"])
    assert roots[0] == roots[1]


@pytest.mark.parametrize("argv", [
    "integrals --preset vdp",
    "averaged --preset vdp",
    "roots --preset vdp",
    "synthesize --preset vdp --targets 1",
])
def test_tol_only_on_search_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--tol", "0.1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "integrals --spec {tmp}/missing.json",
    "--out {tmp}/missing_dir/doc.json integrals --preset vdp",
    "pipeline --preset vdp --steps 512 --csv {tmp}/plain.txt/scans",
])
def test_exit_code_2_on_unusable_path(capsys, tmp_path, argv):
    (tmp_path / "plain.txt").write_text("not a directory", encoding="utf-8")
    rc = main(argv.format(tmp=tmp_path).split())
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_exit_code_4_on_count_mismatch(capsys):
    rc = main(["pipeline", "--preset", "vdp", "--bracket", "2.0", "3.0",
               "--steps", "512"])
    assert rc == 4
    capsys.readouterr()


def test_exit_code_1_on_failed_continuation(capsys):
    rc = main(["continuation", "--preset", "vdp", "--eps", "0.02", "0.01",
               "--root", "0.4", "--steps", "512"])
    assert rc == 1
    capsys.readouterr()
