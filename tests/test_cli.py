"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from util import count_calls

import verbalclosure.words as words
from verbalclosure import GroupSpec, analyze, cli
from verbalclosure.cli import main, make_parser
from verbalclosure.words import parse_equation, serialize_equation

WITNESS_SPEC = """groupspec v1
factors = [DInf, DInf]
b = b1*b2
a = a1^3*a2^5
"""

RETRACT_SPEC = """groupspec v1
factors = [DInf, DInf]
b = b1*b2
a = a1*a2^5
"""

BAD_WORD_SPEC = """groupspec v1
factors = [DInf]
b = b1
a = a1^
"""

NOT_DIHEDRAL_SPEC = """groupspec v1
factors = [DInf, Zed]
b = b1
a = t2
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_analyze_witness_exit_code_and_report(tmp_path, capsys):
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    code = main(["analyze", path])
    out = capsys.readouterr().out
    assert code == 10
    assert "verdict: NotVerballyClosed" in out
    assert "rhs = a^131072" in out
    assert "k=3" in out and "k=5" in out
    assert "certificate valid: yes" in out


def test_analyze_retract_exit_code(tmp_path, capsys):
    path = write(tmp_path, "r.spec", RETRACT_SPEC)
    code = main(["analyze", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: Retract" in out
    assert "witness character:" in out


def test_analyze_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.spec", BAD_WORD_SPEC)
    assert main(["analyze", path]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_validation_error(tmp_path, capsys):
    path = write(tmp_path, "nd.spec", NOT_DIHEDRAL_SPEC)
    assert main(["analyze", path]) == 2
    assert "invert" in capsys.readouterr().err


@pytest.mark.parametrize("extra, key", [
    ("a = a1*a2^5\n", "a"),  # a repeated key once kept its last value
    ("filer = 2\n", "filer"),  # an unknown key was once dropped
], ids=["repeated-key", "unknown-key"])
def test_analyze_rejects_repeated_and_unknown_keys(tmp_path, capsys, extra,
                                                   key):
    path = write(tmp_path, "k.spec", WITNESS_SPEC + extra)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown or repeated key {key!r}\n"


@pytest.mark.parametrize("factors, a, err", [
    ("[DInf, DInf]", "a1^3*a2^\u0665", "malformed word term 'a2^\u0665'"),
    ("[DInf, ZedMod(\u0666)]", "a1^3", "unknown factor 'ZedMod(\u0666)'"),
    ("[DInf,,DInf]", "a1^3*a2^5", "empty factor entry"),
    ("[DInf, DInf,]", "a1^3*a2^5", "empty factor entry"),
], ids=["arabic-indic-exponent", "arabic-indic-modulus", "empty-entry",
        "trailing-comma"])
def test_analyze_rejects_non_ascii_digits_and_empty_factors(tmp_path, capsys,
                                                           factors, a, err):
    # \d and int() read any Unicode digit, so a^\u0665 was read as a^5, and
    # empty factor entries were dropped
    spec = f"groupspec v1\nfactors = {factors}\nb = b1\na = {a}\n"
    path = tmp_path / "lenient.spec"
    path.write_text(spec, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python reads integers of any length")
@pytest.mark.parametrize("factors, a, what", [
    ("[DInf, DInf]", "a1^{}*a2", "the exponent of a1"),
    ("[DInf, ZedMod({})]", "a1^3", "the modulus of ZedMod"),
], ids=["exponent", "modulus"])
def test_spec_integers_past_the_digit_limit_are_spec_errors(tmp_path, capsys,
                                                           factors, a, what):
    # int() raises a plain ValueError past Python's limit on int(str),
    # which used to escape main as a traceback with exit 1
    digits = "1" * (sys.get_int_max_str_digits() + 700)
    spec = (f"groupspec v1\nfactors = {factors.format(digits)}\nb = b1\n"
            f"a = {a.format(digits)}\n")
    path = write(tmp_path, "big.spec", spec)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {what} has {len(digits)} digits, past "
                            "Python's limit on reading an integer\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("a", ["a1", "a1^3"], ids=["retract", "witness"])
def test_torsion_order_past_the_digit_limit_is_a_spec_error(tmp_path, capsys,
                                                            fmt, a):
    # each modulus reads, but their product, the torsion order that every
    # report prints, is past the limit on str(int): it used to escape main
    # as a traceback with exit 1
    limit = sys.get_int_max_str_digits()
    modulus = "9" * (limit - 1)
    spec = (f"groupspec v1\nfactors = [DInf, ZedMod({modulus}), "
            f"ZedMod({modulus})]\nb = b1\na = {a}\n")
    path = write(tmp_path, "big.spec", spec)
    assert main(["analyze", path, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the torsion order of the square subgroup "
                            f"has more than {limit} digits, past Python's "
                            "limit on printing an integer\n")


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/path.spec"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_undecodable_file(tmp_path, capsys):
    # a byte that is not UTF-8, even inside a comment, used to escape main
    # as a UnicodeDecodeError traceback with exit 1
    path = tmp_path / "bad.spec"
    path.write_bytes(RETRACT_SPEC.encode() + b"# \xff\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert "utf-8" in captured.err


def test_analyze_reads_a_spec_with_a_byte_order_mark(tmp_path, capsys):
    # the mark used to be read as part of the header line, which then was
    # reported missing, with exit 2
    path = tmp_path / "bom.spec"
    path.write_bytes(b"\xef\xbb\xbf" + WITNESS_SPEC.encode())
    assert main(["analyze", str(path)]) == 10
    plain = write(tmp_path, "w.spec", WITNESS_SPEC)
    first = capsys.readouterr()
    assert main(["analyze", plain]) == 10
    assert capsys.readouterr() == first


def test_closed_stdout_is_an_error_line(tmp_path):
    # `analyze SPEC | head -3` used to end in a BrokenPipeError traceback
    # and exit 1; the report cannot be written, so exit 2 with one line
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "verbalclosure", "analyze", path],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: cannot write the report: [Errno 32] Broken pipe"]


@pytest.mark.parametrize("target", ["missing_dir/eq.txt", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_equation_path_is_an_error(tmp_path, capsys, monkeypatch,
                                              target):
    # open() raises FileNotFoundError or IsADirectoryError here; both used
    # to escape main as a traceback with exit 1.  The path is checked
    # before the decision, so nothing is analyzed, a Retract (which writes
    # no equation) is refused as well, and no file is made
    analyses = count_calls(monkeypatch, cli, "analyze")
    eq_path = str(tmp_path / target)
    for spec in (WITNESS_SPEC, RETRACT_SPEC):
        path = write(tmp_path, "w.spec", spec)
        assert main(["analyze", path, "--emit-equation", eq_path]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot write {eq_path}: ")
    assert len(analyses) == 0
    assert sorted(os.listdir(tmp_path)) == ["w.spec"]


def test_filler_unit_rejected(tmp_path, capsys):
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    assert main(["analyze", path, "--filler", "1"]) == 2
    capsys.readouterr()
    assert main(["analyze", path, "--filler", "-1"]) == 2
    capsys.readouterr()
    assert main(["analyze", path, "--filler", "2"]) == 10


@pytest.mark.parametrize("option", ["--samples", "--trials", "--bound"])
def test_negative_counts_rejected(tmp_path, capsys, option):
    # a negative count would run zero samples or trials and report success,
    # and a negative bound would crash the sampler; 0 stays allowed
    for spec in (WITNESS_SPEC, RETRACT_SPEC):
        path = write(tmp_path, "s.spec", spec)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--verify", option, "-3"])
        assert exc.value.code == 2
        assert "must be at least 0, got -3" in capsys.readouterr().err
    assert main(["analyze", path, "--verify", option, "0"]) == 0
    assert "verified" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_zero_counts_report_nothing_checked(tmp_path, capsys, monkeypatch,
                                            fmt):
    # a sampled check that sampled or tried nothing neither passes nor fails
    cases = [(RETRACT_SPEC, "--samples", 0, "retraction verified (",
              "nothing sampled", "retraction_verified"),
             (WITNESS_SPEC, "--trials", 10, "spot check (", "nothing tried",
              "spot_check_clean")]
    for spec, option, code, start, said, key in cases:
        path = write(tmp_path, "s.spec", spec)
        argv = ["analyze", path, "--verify", option, "0", "--format", fmt]
        assert main(argv) == code
        out = capsys.readouterr().out
        if fmt == "text":
            line, = [s for s in out.splitlines() if s.startswith(start)]
            assert f"{option[2:]}=0" in line and line.endswith("): " + said)
        else:
            assert json.loads(out)[key] is None
    # a failure found without sampling still reads as one
    monkeypatch.setattr(cli, "verify_retraction", lambda *a, **k: False)
    path = write(tmp_path, "s.spec", RETRACT_SPEC)
    main(["analyze", path, "--verify", "--samples", "0", "--format", fmt])
    out = capsys.readouterr().out
    if fmt == "text":
        assert "seed=0): NO" in out
    else:
        assert json.loads(out)["retraction_verified"] is False


def test_emit_equation_round_trips(tmp_path, capsys):
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    out_path = str(tmp_path / "eq.txt")
    assert main(["analyze", path, "--emit-equation", out_path]) == 10
    capsys.readouterr()
    text = Path(out_path).read_text()
    eq = parse_equation(text)
    assert eq.rhs_exponent == 2 ** 17
    assert sorted(k for k in eq.k_values if k) == [3, 5]


EMIT_SPECS = {
    "2xDInf": ("[DInf, DInf]", "b1*b2", "a1^3*a2^5"),
    "DInf-DInf-Z6": ("[DInf, DInf, ZedMod(6)]", "b1*b2*c3^3", "a1^3*a2^5"),
    "DInf-DInf-Z": ("[DInf, DInf, Zed]", "a1*b1*b2", "a1^3*a2^-5"),
    "3xDInf": ("[DInf, DInf, DInf]", "b1*b2*b3", "a1^3*a2^5*a3^7"),
}


@pytest.mark.parametrize("filler", ["0", "2", "-3"])
@pytest.mark.parametrize("name", EMIT_SPECS)
def test_emitted_file_is_the_serialized_equation(tmp_path, capsys, name,
                                                 filler):
    factors, b, a = EMIT_SPECS[name]
    text = f"groupspec v1\nfactors = {factors}\nb = {b}\na = {a}\n"
    path = write(tmp_path, "w.spec", text)
    out_path = tmp_path / "eq.txt"
    assert main(["analyze", path, "--filler", filler,
                 "--emit-equation", str(out_path)]) == 10
    capsys.readouterr()
    eq = analyze(GroupSpec.from_text(text), filler=int(filler)).equation
    emitted = out_path.read_text()
    assert emitted == serialize_equation(eq)
    assert ("(torsion 3)" in emitted) == (name == "DInf-DInf-Z6")


def test_report_is_byte_deterministic(tmp_path, capsys):
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    main(["analyze", path, "--verify", "--seed", "1"])
    first = capsys.readouterr().out
    main(["analyze", path, "--verify", "--seed", "1"])
    second = capsys.readouterr().out
    assert first == second


def test_structured_format(tmp_path, capsys):
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    assert main(["analyze", path, "--format", "structured"]) == 10
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "NotVerballyClosed"
    assert payload["rhs_exponent"] == 2 ** 17
    assert payload["certificate_valid"] is True
    path2 = write(tmp_path, "r.spec", RETRACT_SPEC)
    assert main(["analyze", path2, "--format", "structured", "--verify",
                 "--samples", "100"]) == 0
    payload2 = json.loads(capsys.readouterr().out)
    assert payload2["verdict"] == "Retract"
    assert payload2["retraction_verified"] is True


def test_verify_flag_witness(tmp_path, capsys):
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    assert main(["analyze", path, "--verify"]) == 10
    out = capsys.readouterr().out
    assert "ambient solution verified in G: yes" in out
    assert "no dihedral solution found" in out


def test_verify_at_c_rank_10_builds_no_tower(tmp_path, capsys, monkeypatch):
    # 5 of the 1024 towers are live, and they are evaluated from the recipe
    # with no word built: building all of them (about 4^10 nodes) took over
    # 30 s
    towers = count_calls(monkeypatch, words, "_tower")
    walks = count_calls(monkeypatch, words, "postorder")
    path = write(tmp_path, "w10.spec", """groupspec v1
factors = [DInf, DInf, DInf, DInf, DInf]
b = b1*b2*b3*b4*b5
a = a1^3*a2^5*a3^7*a4^9*a5^11
""")
    t0 = time.perf_counter()
    code = main(["analyze", path, "--verify", "--trials", "8"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 10
    assert "ambient solution verified in G: yes" in out
    assert "no dihedral solution found" in out
    assert towers == [] and walks == []
    assert elapsed < 10.0, elapsed


def test_verify_checks_the_g_solution_with_no_product_in_g(monkeypatch):
    # the G side is checked in closed form; the only evaluation left is
    # the spot check's, over D-infinity
    from verbalclosure.ambient import AmbientGroup
    from verbalclosure.dihedral import DIHEDRAL_OPS

    verdict = analyze(GroupSpec.from_text(WITNESS_SPEC))
    args = make_parser().parse_args(["analyze", "w.spec", "--verify",
                                     "--trials", "8"])
    calls = [count_calls(monkeypatch, AmbientGroup, name)
             for name in ("mul", "inv")]
    evaluations = count_calls(monkeypatch, words.Equation, "lhs_value")
    lines, _, code = cli.build_report(verdict, args)
    assert code == 10
    assert "ambient solution verified in G: yes" in lines
    assert calls == [[], []]
    assert len(evaluations) == 8
    assert all(ops is DIHEDRAL_OPS for _, _, ops in evaluations)


def test_default_verify_at_c_rank_12_is_quick(tmp_path, capsys):
    # 1,000 spot-check trials: a trial stops each tower at its first
    # identity level, so only the towers whose character matches the flips
    # run every level.  Running all 2^12 levels of each live tower took
    # over a minute
    path = write(tmp_path, "w12.spec", """groupspec v1
factors = [DInf, DInf, DInf, DInf, DInf, DInf]
b = b1*b2*b3*b4*b5*b6
a = a1^3*a2^5*a3^7*a4^9*a5^11*a6^13
""")
    t0 = time.perf_counter()
    code = main(["analyze", path, "--verify"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 10
    assert "ambient solution verified in G: yes" in out
    assert ("spot check (bound=50, trials=1000, seed=0): "
            "no dihedral solution found") in out
    assert elapsed < 5.0, elapsed


def test_reused_parser_carries_no_options_over(tmp_path, capsys):
    # main keeps one parser per process; every call must still read only
    # its own argv, exactly as a freshly built parser does
    path = write(tmp_path, "w.spec", WITNESS_SPEC)
    eq_file = tmp_path / "eq.txt"
    runs = [["analyze", path, "--verify", "--seed", "1",
             "--emit-equation", str(eq_file)],
            ["analyze", path],
            ["analyze", path, "--format", "structured"]]
    main(runs[1])
    capsys.readouterr()
    parser = cli._parser
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        emitted = eq_file.exists()
        eq_file.unlink(missing_ok=True)
        args = make_parser().parse_args(argv)
        assert args.func(args) == code
        assert capsys.readouterr().out == out
        assert eq_file.exists() == emitted == ("--emit-equation" in argv)
        eq_file.unlink(missing_ok=True)
        assert ("verified" in out) == ("--verify" in argv)
    assert cli._parser is parser
    assert main(["selftest"]) == 0
    assert "selftest passed" in capsys.readouterr().out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "selftest ok: swap-module fixture" in out


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "verbalclosure", "selftest"],
                          env=env, cwd=root, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "selftest passed" in done.stdout


def test_selftest_names_injected_failure(capsys, monkeypatch):
    # flip a sign inside the projection: a named check must fail
    import verbalclosure.involutions as inv

    original = inv.InvolutionModule.project_free

    def broken(self, q, chi, _orig=original):
        v = _orig(self, q, chi)
        return tuple(-x for x in v)

    monkeypatch.setattr(inv.InvolutionModule, "project_free", broken)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "selftest failed:" in out


def test_selftest_catches_certificate_accepting_units(capsys, monkeypatch):
    # a certificate builder without its unit-exponent check must fail the
    # check named for it, not pass on some other error
    import verbalclosure.dihedral as dih

    original = dih.certify_no_solution

    def accepts_units(eq, *args, **kwargs):
        try:
            return original(eq, *args, **kwargs)
        except dih.InvalidEquation:
            return None

    monkeypatch.setattr(dih, "certify_no_solution", accepts_units)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "selftest failed: certificate rejects unit exponents" in out
