"""Golden reports: `analyze` output, exit codes and one emitted equation,
compared byte for byte.

Each case in golden/cases.json names a spec golden/<case>.spec and the
extra `analyze` flags.  golden/<case>.text and golden/<case>.structured hold
the reports of

    verbalclosure analyze <case>.spec <flags> [--format structured]

run from an empty directory, so that a relative `--emit-equation` path
prints the same in every checkout.  A change that alters a report on
purpose regenerates the files with that command and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from verbalclosure.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
with open(os.path.join(GOLDEN, "cases.json")) as _fh:
    CASES = json.load(_fh)


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, fmt, tmp_path, monkeypatch):
    expect = CASES[case]
    monkeypatch.chdir(tmp_path)
    argv = ["analyze", os.path.join(GOLDEN, case + ".spec")] + expect["flags"]
    if fmt == "structured":
        argv += ["--format", "structured"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == expect["exit"]
    with open(os.path.join(GOLDEN, f"{case}.{fmt}"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()
    if "equation_sha256" in expect:
        with open("eq.txt", "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == expect["equation_sha256"]
