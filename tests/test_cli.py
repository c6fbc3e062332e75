"""CLI: JSON document shape, determinism, exit-code mapping."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cycleavg

from cycleavg import (
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    example1,
    lienard,
    linear_field,
    monomial,
    retune_b,
    spec_to_json,
    vdp,
    with_epsilon,
)
from cycleavg import cli, flow, monomials
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


EXAMPLE2_PIPELINE = ("pipeline", "--preset", "example2", "--targets", "1", "4",
                     "--eps", "0.01")


def test_steps_below_every_start_count_change_nothing(capsys):
    # a Newton cell run at exactly 8 steps certified r* 0.982357449 with a
    # residual of 4e-16, 1e-3 from the cycle at 0.981334485; as the lowest
    # count a revolution may start from, 8 is below every start
    rc, plain = run(capsys, *EXAMPLE2_PIPELINE)
    assert rc == 0
    assert run(capsys, *EXAMPLE2_PIPELINE, "--steps", "8") == (0, plain)
    sample = ("simulate", "--preset", "example2", "--r0", "2.0")
    rc, plain = run(capsys, *sample)
    assert rc == 0
    assert run(capsys, *sample, "--steps", "8") == (0, plain)
    assert json.loads(plain)["result"]["sample"]["steps"] == flow.REVOLUTION_STEPS


def test_steps_whose_count_meets_tol_keep_their_output(capsys):
    # every revolution of this search meets tol at the count it starts
    # from, so the document is the one an exact 128-step count printed
    rc, out = run(capsys, *EXAMPLE2_PIPELINE, "--steps", "128")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "30d9e0f01950c6592327f017f29381a1e7bb33a5a3dd274a163d645696d71843")


def test_steps_floor_certifies_the_stiff_repelling_cycle(capsys, tmp_path):
    # lienard6 retuned to 0.8, 1.3 and 1.8 at eps 0.2: the scan settled and
    # the cell started at 1024 steps certify the middle cycle
    spec = retune_b(lienard(6, epsilon=0.2).spec, [0.8, 1.3, 1.8])[0].spec
    path = tmp_path / "lienard6.json"
    path.write_text(json.dumps(spec_to_json(spec)), encoding="utf-8")
    rc, out = run(capsys, "simulate", "--spec", str(path), "--bracket", "0.9", "1.6",
                  "--steps", "1024")
    assert rc == 0
    (fp,) = json.loads(out)["result"]["runs"][0]["fixed_points"]
    assert fp["r_star"] == pytest.approx(1.2666236917624805, rel=1e-12, abs=0.0)
    assert fp["residual"] <= 1e-10


def test_strongly_repelling_cycle_is_certified_at_the_default_counts(capsys, tmp_path):
    # the same cycle, P' ~ 2,974: its residual is about |P' - 1| |r - r*|,
    # so Newton steps on below 1e-12 r until the residual meets tol, where
    # a fixed 1e-12 r step rule stopped at residual 8.6e-10 and skipped it
    spec = retune_b(lienard(6, epsilon=0.2).spec, [0.8, 1.3, 1.8])[0].spec
    path = tmp_path / "lienard6.json"
    path.write_text(json.dumps(spec_to_json(spec)), encoding="utf-8")
    rc, out = run(capsys, "simulate", "--spec", str(path), "--bracket", "0.9", "1.6")
    assert rc == 0
    (fp,) = json.loads(out)["result"]["runs"][0]["fixed_points"]
    assert fp["r_star"] == pytest.approx(1.2666236917624805, rel=1e-12, abs=0.0)
    assert fp["residual"] <= 1e-10
    assert fp["map_derivative"] > 1000.0


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
    "simulate --preset vdp --r0 1 --eps 0",
    "simulate --preset vdp --r0 1 --eps -0.01",
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
    "simulate --preset vdp --r0 1 --tol 1e-6",
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


def test_r0_checks_its_epsilon_by_the_eps_rule(capsys, tmp_path):
    # from --eps or else from the spec, one epsilon must be finite and
    # positive, as every other --eps value is; return_map itself accepts 0
    # and negative values
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(spec_to_json(with_epsilon(vdp().spec, 0.0))))
    for argv in (["--preset", "vdp", "--eps", "0"],
                 ["--preset", "vdp", "--eps", "-0.01"],
                 ["--spec", str(path)]):
        assert main(["simulate", *argv, "--r0", "1.0"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon values must be finite and positive")
    assert flow.return_map(with_epsilon(vdp().spec, 0.0), 1.0).r1 == 1.0


def test_exit_code_2_on_non_finite_spec(capsys, tmp_path):
    doc = spec_to_json(vdp().spec)
    doc["b"][1] = math.nan
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = run(capsys, "averaged", "--spec", str(path))
    assert rc == 2 and out == ""


#: One field of exponent 1 whose f terms are two x monomials of
#: coefficient 1e308: finite input whose angular integral overflows.
OVERFLOW_SPEC = {"orientation": "ccw", "epsilon": 0.01, "b": [1.0], "fields": [
    {"alpha": "1", "f": [{"c": 1e308, "px": "1", "py": "0", "sx": True, "sy": False}] * 2,
     "g": []}]}


def _signed_x_power_spec(b, c1, c3):
    """Fields c1 sgn(x) |x| and c3 sgn(x) |x|^3 in f, of exponents 1 and 3."""
    return {"orientation": "ccw", "epsilon": 0.01, "b": b, "fields": [
        {"alpha": str(a), "f": [{"c": c, "px": str(a), "py": "0", "sx": True, "sy": False}],
         "g": []} for a, c in ((1, c1), (3, c3))]}


#: b_0 1e308 on a field whose integral is 10 pi: finite integrals, but the
#: coefficient b_0 I_0 / 2 pi of h overflows.
H_OVERFLOW_SPEC = _signed_x_power_spec([1e308, 1.0], 10.0, -1.0)

#: I_0 = 3.14e-315, so the b_0 = 2 pi c_0 / I_0 that retunes h's root to
#: 1.0 overflows, though the input is valid.
B_OVERFLOW_SPEC = _signed_x_power_spec([1.0, 1.0], 1e-315, -1e10)

#: A constant field 1e30 under eps b = 6.25e298: the bound rows e_j F_j
#: overflow, and the first stage leaves the guard window.
ROW_OVERFLOW_SPEC = {"orientation": "ccw", "epsilon": 0.0625, "b": [1e300], "fields": [
    {"alpha": "0", "f": [{"c": 1e30, "px": "0", "py": "0", "sx": False, "sy": False}],
     "g": []}]}


@pytest.mark.parametrize("command", ["integrals", "averaged", "roots", "pipeline"])
def test_exit_code_1_on_a_non_finite_result(capsys, tmp_path, command):
    # stdout is strict JSON or empty: a result that holds an infinity is a
    # computation error (exit 1), not malformed input, and prints nothing.
    # The overflowing integral, or coefficient of h, is refused where it is
    # computed, naming its field, so the pipeline neither warns nor
    # searches on infinite rows.
    cases = [(OVERFLOW_SPEC, "the angular integral of field 0 is not finite (inf)")]
    if command != "integrals":                # which computes no h
        cases.append((H_OVERFLOW_SPEC,
                      "the coefficient b_0 I_0 / 2 pi of field 0 in h is not finite (inf)"))
    path, out_path = tmp_path / "spec.json", tmp_path / "out.json"
    for spec, message in cases:
        path.write_text(json.dumps(spec), encoding="utf-8")
        for argv in ([command, "--spec", str(path)],
                     ["--out", str(out_path), command, "--spec", str(path)]):
            rc = main(argv)
            captured = capsys.readouterr()
            assert rc == 1 and captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert not out_path.exists()


def test_exit_code_1_on_an_overflowing_retuned_b(capsys, tmp_path):
    # the input is valid, its integral tiny; the b that synthesis computes
    # from it overflows, which is the computation's failure (exit 1), not
    # the input's (exit 2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(B_OVERFLOW_SPEC), encoding="utf-8")
    rc, out = run(capsys, "integrals", "--spec", str(path))
    assert rc == 0 and json.loads(out)["result"]["integrals"][0] == pytest.approx(
        math.pi * 1e-315, rel=1e-6)
    for command in ("synthesize", "pipeline"):
        rc = main([command, "--spec", str(path), "--targets", "1.0"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == ("error: the retuned b_0 = 2 pi c / I_0 of field 0 "
                                "is not finite (inf)\n")


@st.composite
def contract_specs(draw):
    """Spec documents of one to three fields with exponents among 0, 1/2,
    1, 3/2, 2 and 3, coefficients and b entries up to 10^+-300, in either
    orientation."""
    def number():
        scale = draw(st.sampled_from((0, 0, 0, -300, -30, 30, 300)))
        return draw(st.floats(-3.0, 3.0)) * 10.0 ** scale

    def term(alpha):
        x = Fraction(draw(st.integers(0, int(2 * alpha))), 2)
        return {"c": number(), "px": str(x), "py": str(alpha - x),
                "sx": x > 0 and draw(st.booleans()),
                "sy": alpha > x and draw(st.booleans())}

    alphas = sorted(draw(st.sets(st.sampled_from((0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)),
                                 min_size=1, max_size=3)))
    fields = [{"alpha": str(Fraction(a)),
               "f": [term(a) for _ in range(draw(st.integers(0, 2)))],
               "g": [term(a) for _ in range(draw(st.integers(0, 2)))]} for a in alphas]
    return {"orientation": draw(st.sampled_from(("ccw", "cw"))),
            "epsilon": draw(st.floats(1e-3, 0.1)), "b": [number() for _ in fields],
            "fields": fields}


def _contract_argv(command, path, r, nfields):
    """The argv of `command` on the spec at `path`, with r the start radius
    of `simulate --r0`, the lower end of a narrow bracket, or the first of
    one target per field but one."""
    if command == "synthesize":
        targets = [repr(r * 1.5 ** k) for k in range(max(1, nfields - 1))]
        return ["synthesize", "--spec", path, "--targets", *targets]
    if command == "simulate --r0":
        return ["simulate", "--spec", path, "--r0", repr(r)]
    if command == "simulate --bracket":
        return ["simulate", "--spec", path, "--bracket", repr(r), repr(1.05 * r)]
    return [command, "--spec", path]


def _captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


# a warning would print on stderr once per process, so the same argv run
# twice would not print the same bytes: here it escapes `main`
@pytest.mark.filterwarnings("error")
@settings(max_examples=50, derandomize=True, deadline=None)
@given(contract_specs(),
       st.sampled_from(("integrals", "averaged", "roots", "synthesize", "simulate --r0",
                        "simulate --bracket")),
       st.floats(0.3, 3.0))
@example(OVERFLOW_SPEC, "roots", 1.0)
@example(H_OVERFLOW_SPEC, "averaged", 1.0)
@example(H_OVERFLOW_SPEC, "roots", 1.0)
@example(B_OVERFLOW_SPEC, "synthesize", 1.0)
@example(ROW_OVERFLOW_SPEC, "simulate --r0", 1.0)
def test_the_cli_contract_holds_on_generated_specs(spec, command, r):
    # whatever the spec, main returns a documented exit code; stdout is one
    # strict JSON document or empty, stderr one error line on failure, and
    # --out writes what stdout would print
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        argv = _contract_argv(command, path, r, len(spec["fields"]))
        rc, out, err = _captured_main(argv)
        assert rc in (0, 1, 2, 4), (argv, err)
        assert "Traceback" not in err
        if rc == 0:
            json.loads(out, parse_constant=_refuse_constant)
        else:
            assert out == ""
            assert [line for line in err.splitlines() if line.startswith("error:")] == [
                err.splitlines()[-1]], err
        assert _captured_main(argv) == (rc, out, err)
        assert _captured_main(["--out", out_path, *argv]) == (rc, "", err)
        if rc == 0:
            with open(out_path, encoding="utf-8") as fh:
                assert fh.read() == out
        else:
            assert not os.path.exists(out_path)


def test_a_non_finite_number_never_reaches_stdout(capsys, tmp_path, monkeypatch):
    # the last guard, behind the typed errors where values are computed
    monkeypatch.setattr(cli, "cmd_integrals", lambda args: {"value": math.nan})
    out_path = tmp_path / "out.json"
    for argv in (["integrals", "--preset", "vdp"],
                 ["--out", str(out_path), "integrals", "--preset", "vdp"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: the result holds a non-finite number, which JSON cannot represent\n")
    assert not out_path.exists()


def _set_number(doc, key, value):
    if key == "b":
        doc["b"][0] = value
    elif key == "epsilon":
        doc["epsilon"] = value
    elif key == "alpha":
        doc["fields"][0]["alpha"] = value
    else:
        doc["fields"][0]["f"][0][key] = value


@pytest.mark.parametrize("key", ["b", "epsilon", "c", "px", "alpha"])
@pytest.mark.parametrize("value", [None, [1], True, "2"],
                         ids=["null", "array", "bool", "string"])
def test_exit_code_2_on_malformed_spec_number(capsys, tmp_path, key, value):
    # the spec wire format checks its numbers and exponents as
    # MonomialSystem does
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


def test_csv_of_an_identity_map_writes_no_scan(capsys, tmp_path):
    # every b_j zero: the map is the identity, so the search integrates
    # nothing and has no scan to write; the report is the one without --csv
    spec = PerturbationSpec((linear_field(1.0, 0.0, 0.0, 0.0),), (0.0,), 0.01)
    path = tmp_path / "zero_b.json"
    path.write_text(json.dumps(spec_to_json(spec)), encoding="utf-8")
    plain = main(["pipeline", "--spec", str(path)]), capsys.readouterr()
    scans = tmp_path / "scans"
    with_csv = main(["pipeline", "--spec", str(path), "--csv", str(scans)]), capsys.readouterr()
    assert plain[0] == with_csv[0] == 0
    assert with_csv[1] == plain[1] and plain[1].err == ""
    assert list(scans.iterdir()) == []


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
