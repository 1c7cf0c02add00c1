"""Write every benchmark spec's report, exit code and equation file, and
the demos' output, so that two checkouts can be compared byte for byte.

    python3 tools/identity.py --out DIR

For each workload w in sweep, ladder, check and each seed s in 101-103,
every spec of ``workload_specs(w, s)`` (from ``bench/family.py``) is run
through ``verbalclosure.cli.main`` in-process, in the text format and in
``--format structured``.  On ``check`` each run adds ``bench/run.py``'s
``CHECK_FLAGS`` and ``--emit-equation <format>.eq``, and each ``check``
witness also runs in the text format with each of ``WITNESS_RUNS``: a
default ``--verify`` (1,000 spot-check trials) and ``--filler 2``, whose
towers are all live.  Two larger witnesses, ``LARGE_WITNESSES``, run in
both formats with ``--verify --trials 8``: ``[DInf]*5`` and ``[DInf]*6``
with ``a = a1^3*a2^5*...``, at c_rank 10 and 12, past the workloads' c_rank
6.  Each spec runs from inside its own directory
DIR/w/s/NAME, so every path a report prints is relative and the same in
every checkout (DIR/large/NAME for the larger witnesses).  That
directory holds:

* ``spec``: the spec file;
* ``text.out``, ``structured.out``: the reports (stdout);
* ``text.exit``, ``structured.exit``: the exit code, or the type of the
  exception the call raised, followed by anything written to stderr;
* ``text.eq``, ``structured.eq``: the equation files, for a witness on
  ``check``;
* ``verify.out``, ``verify.exit``, ``filler2.out``, ``filler2.exit``: the
  ``WITNESS_RUNS`` of a witness on ``check``.

Then each demo runs as its own process against this checkout's ``src``;
DIR/demos/NAME.out holds its stdout and DIR/demos/NAME.exit its exit code.

Run it in a checkout of the parent commit and in the change, then
``diff -r`` the two directories.  The package is imported from this
checkout's ``src`` and never from elsewhere; nothing under ``bench/`` is
written.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/

from family import workload_specs  # noqa: E402
from run import CHECK_FLAGS, load_program  # noqa: E402

WORKLOADS = ("sweep", "ladder", "check")
SEEDS = (101, 102, 103)
FORMATS = {"text": [], "structured": ["--format", "structured"]}
# the extra runs of a check witness, in the text format
WITNESS_RUNS = {"verify": ["--verify"],
                "filler2": ["--filler", "2", "--verify", "--trials", "8"]}


def dinf_witness(n):
    """The spec text of [DInf]*n, b = b1*...*bn, a = a1^3*a2^5*...: a
    witness at c_rank 2n."""
    return ("groupspec v1\nfactors = [" + ", ".join(["DInf"] * n) + "]\n"
            "b = " + "*".join(f"b{i}" for i in range(1, n + 1)) + "\n"
            "a = " + "*".join(f"a{i}^{2 * i + 1}" for i in range(1, n + 1))
            + "\n")


LARGE_WITNESSES = {f"dinf{n}": dinf_witness(n) for n in (5, 6)}


def run_cli(main, argv):
    """(stdout, the exit code or the exception's type name, stderr) of one
    in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an option this way
            code = exc.code
        except Exception as exc:  # a crash, recorded so that it shows in a diff
            code = type(exc).__name__
    return out.getvalue(), code, err.getvalue()


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def record(main, name, argv):
    """Run argv and write its stdout to NAME.out and its exit code and
    stderr to NAME.exit, in the current directory; returns the code."""
    stdout, code, stderr = run_cli(main, argv)
    write(f"{name}.out", stdout)
    write(f"{name}.exit", f"{code}\n{stderr}")
    return code


def run_specs(main, out):
    """Every workload spec in both formats, each check witness's
    `WITNESS_RUNS` and the `LARGE_WITNESSES`; returns the number of runs."""
    runs = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for spec in workload_specs(workload, seed):
                where = os.path.join(out, workload, str(seed), spec.name)
                os.makedirs(where)
                write(os.path.join(where, "spec"), spec.text())
                os.chdir(where)
                codes = {}
                for fmt, flags in FORMATS.items():
                    argv = ["analyze", "spec"] + flags
                    if workload == "check":
                        argv += CHECK_FLAGS + ["--emit-equation", f"{fmt}.eq"]
                    codes[fmt] = record(main, fmt, argv)
                    runs += 1
                if workload == "check" and codes["text"] == 10:
                    for name, flags in WITNESS_RUNS.items():
                        record(main, name, ["analyze", "spec"] + flags)
                        runs += 1
    for name, text in LARGE_WITNESSES.items():
        where = os.path.join(out, "large", name)
        os.makedirs(where)
        write(os.path.join(where, "spec"), text)
        os.chdir(where)
        for fmt, flags in FORMATS.items():
            record(main, fmt, ["analyze", "spec", "--verify", "--trials", "8"]
                   + flags)
            runs += 1
    return runs


def run_demos(out):
    """Each demo's stdout and exit code, one process per demo."""
    where = os.path.join(out, "demos")
    os.makedirs(where)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    demos = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
                   if f.endswith(".py"))
    for name in demos:
        done = subprocess.run([sys.executable, os.path.join("demos", name)],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True)
        stem = name[:-len(".py")]
        write(os.path.join(where, stem + ".out"), done.stdout)
        write(os.path.join(where, stem + ".exit"), f"{done.returncode}\n")
    return len(demos)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="directory to write; must not exist or be empty")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    if os.path.isdir(out) and os.listdir(out):
        sys.exit(f"error: {args.out} is not empty")
    os.makedirs(out, exist_ok=True)
    vc = load_program()
    cwd = os.getcwd()
    try:
        runs = run_specs(vc.cli.main, out)
    finally:
        os.chdir(cwd)
    demos = run_demos(out)
    print(f"{runs} reports and {demos} demos written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
