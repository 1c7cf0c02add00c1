"""Closed-loop benchmark of `verbalclosure analyze`.

    python3 bench/run.py --workload {sweep,ladder,check} --seed N
                         --seconds S --trace {0,1}

One process, one caller: every operation is an in-process call of
``verbalclosure.cli.main(["analyze", SPECFILE, "--format", "structured",
...])`` with stdout captured.  The inputs are generated from the seed and
written as spec files under bench/out/; each is decided once as a warm-up and
then once per pass, in whole passes, for about S seconds.  After the timed
passes every distinct input is checked against the closed-form verdict and
the program-independent evaluator of ``checks``.

Times are calibrated against the machine's current speed (``calibration``).
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics -- the end-to-end ones with --trace 0, the per-layer ones of
``tracing`` with --trace 1.  The same object, with every operation's
calibrated and measured time, goes to bench/out/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from calibration import Clock  # noqa: E402
from checks import check_report, check_retraction, check_witness  # noqa: E402
from family import expected, workload_specs  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
# fixed --verify settings of the check workload
CHECK_FLAGS = ["--verify", "--trials", "8", "--samples", "300",
               "--seed", "0"]


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import verbalclosure.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import verbalclosure from {SRC}: {exc}")
    where = os.path.realpath(verbalclosure.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: verbalclosure was imported from {where}, "
                 f"not from {SRC}")
    return verbalclosure


class Input:
    """One generated spec with its file, argv and warm-up result."""

    def __init__(self, spec, workdir, workload):
        self.spec = spec
        self.path = os.path.join(workdir, spec.name + ".spec")
        with open(self.path, "w") as fh:
            fh.write(spec.text())
        self.argv = ["analyze", self.path, "--format", "structured"]
        self.equation_path = None
        if workload == "check":
            self.equation_path = os.path.join(workdir, spec.name + ".eq")
            self.argv += CHECK_FLAGS + ["--emit-equation", self.equation_path]
        self.output = None
        self.code = None
        self.intervals = []  # (start, end) of each timed operation
        self.tickets = []  # their calibration tickets
        self.times = []  # their calibrated seconds


def call(main, argv):
    """Run the CLI once; (exit code, stdout, (start, end)) or None if it
    raised."""
    buf = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception as exc:  # counted as a failed operation
        print(f"error: {argv[1]} raised {type(exc).__name__}", file=sys.stderr)
        return None
    return code, buf.getvalue(), (t, time.perf_counter())


def keep_going(passes, started, pass_seconds, seconds):
    """Whole passes until the next one would end after the run length."""
    if passes < MIN_PASSES:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(pass_seconds) <= seconds


def check_inputs(vc, inputs, workload):
    """Check every distinct input once; returns a list of problems."""
    problems = []
    for inp in inputs:
        exp = expected(inp.spec)
        want = 0 if exp.retract else 10
        if inp.code != want:
            problems.append(f"{inp.spec.name}: exit code {inp.code}, "
                            f"expected {want}")
        problems += check_report(inp.spec, json.loads(inp.output), exp,
                                 verify=workload == "check")
        verdict = vc.analyze(vc.GroupSpec.from_text(inp.spec.text()))
        if verdict.is_retract:
            group = verdict.spec.group
            images = {name: verdict.retraction.apply(
                group.generator_element(name)) for name in group.generators}
            problems += check_retraction(inp.spec, images)
            continue
        if inp.equation_path:
            with open(inp.equation_path) as fh:
                text = fh.read()
        else:
            text = vc.serialize_equation(verdict.equation)
        problems += check_witness(inp.spec, text, verdict.solution,
                                  verdict.certificate.rows,
                                  verdict.data.c_rank)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "ladder", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vc = load_program()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = [Input(s, workdir, args.workload)
                  for s in workload_specs(args.workload, args.seed)]
        result, clock = measure(vc, inputs, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"result": result,
                   "kernel_between": clock.between,
                   "kernel_inside": [e - s for s, e in
                                     zip(clock.starts, clock.ends)],
                   "times": {i.spec.name: i.times for i in inputs},
                   "measured": {i.spec.name: [e - s for s, e in i.intervals]
                                for i in inputs}}, fh)
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(vc, inputs, args):
    main = vc.cli.main
    attempted = failed = mismatched = 0
    prep = (START, time.perf_counter())
    with Clock() as clock:
        setup = [clock.add(*prep)]
        for inp in inputs:
            attempted += 1
            res = call(main, inp.argv)
            if res is None:
                failed += 1
                continue
            inp.code, inp.output, interval = res
            setup.append(clock.add(*interval))
        tracer = Tracer(vc, args.workload, clock) if args.trace else None
        clock.flush()

        started = time.perf_counter()
        pass_seconds = []
        while keep_going(len(pass_seconds), started, pass_seconds,
                         args.seconds):
            p0 = time.perf_counter()
            # a traced run alternates which of an input's two operations
            # goes first, so neither always follows the other's garbage
            traced_first = tracer and len(pass_seconds) % 2
            for i, inp in enumerate(inputs):
                if traced_first and tracer.run(i, inp.argv) != inp.output:
                    mismatched += 1
                attempted += 1
                res = call(main, inp.argv)
                if res is None:
                    failed += 1
                    continue
                code, out, interval = res
                inp.intervals.append(interval)
                inp.tickets.append(clock.add(*interval))
                if out != inp.output or code != inp.code:
                    mismatched += 1
                if tracer and not traced_first and \
                        tracer.run(i, inp.argv) != inp.output:
                    mismatched += 1
            clock.flush()
            pass_seconds.append(time.perf_counter() - p0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok = [inp for inp in inputs if inp.output is not None]
    problems = check_inputs(vc, ok, args.workload)
    if mismatched:
        problems.append(f"{mismatched} outputs differ from their input's "
                        f"checked warm-up output")
    for p in problems[:20]:
        print("check failed: " + p, file=sys.stderr)

    for inp in inputs:
        inp.times = [clock.seconds(t) for t in inp.tickets]
    pass_s = sum(statistics.median(inp.times) for inp in inputs if inp.times)
    if tracer:
        metrics = tracer.metrics(pass_s)
        tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": sum(clock.seconds(t) for t in setup),
                        "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(
                t for inp in inputs for t in inp.times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}, clock


if __name__ == "__main__":
    sys.exit(main())
