"""Per-layer spans and counts for a traced benchmark run.

A traced operation decides one input by calling the package's public
functions one by one, in the order in which ``cli.cmd_analyze``, ``analyze``
and ``--verify`` call them, with a span around each call.  Its stdout must
equal the untraced operation's byte for byte.  Spans live only here, in the
benchmark: the package is not instrumented.

Three probes run after each traced operation and outside its span:

* ``involutions.projector_s``, ``lattice.from_generators_s`` and
  ``lattice.content_s`` take ``is_simple`` apart on a fresh module: project
  a^2 onto every character (this builds every projector), build each nonzero
  component's lattice, take the component's content in it;
* ``words.parse_s`` reads an emitted equation back with ``parse_equation``;
* the counts of group operations evaluate the witness once through
  ``words.CountingOps``, in G and over D-infinity.

Every ``_s`` metric is a sum over the input list of each input's median
across passes, like the end-to-end ``pass_s``; a stage that a workload does
not run reads 0.  Counts are totals over one pass, bit lengths are maxima.
"""

import json
import statistics
import time
from argparse import Namespace
from io import StringIO

STAGES = [
    "ambient.parse_s",
    "ambient.square_data_s",
    "involutions.is_simple_s",
    "ambient.build_retraction_s",
    "words.build_equation_s",
    "ambient.g_solution_s",
    "dihedral.certify_s",
    "cli.build_report_s",
    "ambient.verify_retraction_s",
    "ambient.verify_solution_s",
    "dihedral.spot_check_trial_s",
    "words.serialize_s",
    # probes, outside the traced operation
    "involutions.projector_s",
    "lattice.from_generators_s",
    "lattice.content_s",
    "words.parse_s",
]
COUNTS = [
    "involutions.characters",
    "involutions.nonzero_components",
    "words.nodes",
    "words.equation_bytes",
    "ambient.group_ops",
    "dihedral.group_ops",
]
MAXIMA = ["words.length_bits", "words.rhs_bits"]


class Tracer:
    """Records spans in memory.  They are calibrated like the untraced
    operations: each traced operation, and each run of the probes, is one
    ``calibration.Clock`` interval that its spans share."""

    def __init__(self, vc, workload, clock):
        self.vc = vc
        self.workload = workload
        self.clock = clock
        # (operation id, name, start, end, parent, input index, divisor,
        #  calibration ticket)
        self.spans = []
        self.counts = {}  # (count, input index) -> value
        self._op = 0
        self._open = []  # spans of the current interval
        self._clock = time.perf_counter

    def _span(self, name, i, parent, start, divisor=1):
        end = self._clock()
        self._open.append((self._op, name, start, end, parent, i, divisor))
        return end

    def _close(self, start):
        """End the current interval; its spans share one ticket."""
        ticket = self.clock.add(start, self._clock())
        self.spans += [span + (ticket,) for span in self._open]
        self._open = []

    def run(self, i, argv):
        """Decide input i stage by stage, then run the probes; returns the
        report the traced operation printed."""
        self._op += 1
        op_start = self._clock()
        # the decision's objects are freed when _decide returns, inside the
        # operation's span, as an untraced operation's are inside its time
        out, args, spec, text = self._decide(i, argv)
        self._span("op", i, None, op_start)
        self._close(op_start)
        self._probe(i, args, spec, text)
        return out

    def _decide(self, i, argv):
        vc = self.vc
        amb, cli, dih, wds = vc.ambient, vc.cli, vc.dihedral, vc.words
        t = self._clock()
        args = cli.make_parser().parse_args(argv)
        with open(args.specfile) as fh:
            spec = amb.GroupSpec.from_text(fh.read())
        amb.validate_spec(spec)
        t = self._span("ambient.parse_s", i, "op", t)
        data = amb.square_data(spec)
        a_sq = amb.image_of_a_squared(spec, data)
        t = self._span("ambient.square_data_s", i, "op", t)
        report = data.module.is_simple(a_sq)
        t = self._span("involutions.is_simple_s", i, "op", t)
        eq = None
        if report.simple:
            rho = amb.build_retraction(spec, data, a_sq,
                                       report.witness_character)
            t = self._span("ambient.build_retraction_s", i, "op", t)
            verdict = amb.Verdict(kind="retract", spec=spec, data=data,
                                  report=report, a_squared=a_sq,
                                  retraction=rho)
        else:
            eq = wds.build_witness_equation(
                report, 1, data.presentation.torsion_order, data.c_rank,
                data.coset_words, filler=args.filler)
            t = self._span("words.build_equation_s", i, "op", t)
            solution = amb.g_solution(eq, data, report)
            t = self._span("ambient.g_solution_s", i, "op", t)
            cert = dih.certify_no_solution(eq)
            t = self._span("dihedral.certify_s", i, "op", t)
            verdict = amb.Verdict(kind="not-verbally-closed", spec=spec,
                                  data=data, report=report, a_squared=a_sq,
                                  equation=eq, solution=solution,
                                  certificate=cert)
        _, payload, code = cli.build_report(
            verdict, Namespace(**{**vars(args), "verify": False}))
        t = self._span("cli.build_report_s", i, "op", t)
        if args.verify and eq is None:
            payload["retraction_verified"] = amb.verify_retraction(
                rho, spec, samples=args.samples, bound=args.bound,
                seed=args.seed)
            t = self._span("ambient.verify_retraction_s", i, "op", t)
        elif args.verify:
            payload["solution_verified"] = amb.verify_solution_in_G(
                eq, solution, spec)
            t = self._span("ambient.verify_solution_s", i, "op", t)
            payload["spot_check_clean"] = dih.spot_check_no_solution(
                eq, cli.SPOT_CHECK_BOUND, args.trials, seed=args.seed)
            t = self._span("dihedral.spot_check_trial_s", i, "op", t,
                           args.trials)
        text = None
        if args.emit_equation and eq is not None:
            text = wds.serialize_equation(eq)
            with open(args.emit_equation, "w") as fh:
                fh.write(text)
            t = self._span("words.serialize_s", i, "op", t)
        out = StringIO()
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return out.getvalue(), args, spec, text

    def _probe(self, i, args, spec, text):
        vc = self.vc
        clock = self._clock
        probe_start = clock()
        data = vc.square_data(spec)
        a_sq = vc.image_of_a_squared(spec, data)
        module = vc.involutions.InvolutionModule(
            data.presentation, data.module.actions, check=False)
        t = clock()
        comps = [(chi, module.project_free(a_sq, chi))
                 for chi in module.characters]
        t = self._span("involutions.projector_s", i, "probe", t)
        f = data.presentation.free_rank
        units = [tuple(int(j == k) for j in range(data.presentation.rank))
                 for k in range(data.presentation.rank)]
        nonzero = [(chi, v) for chi, v in comps if any(v)]
        gens = [[module.project_free(e, chi) for e in units]
                for chi, _ in nonzero]
        t = clock()
        lattices = [vc.lattice.Lattice.from_generators(g, dim=f) for g in gens]
        t = self._span("lattice.from_generators_s", i, "probe", t)
        for (_, v), lat in zip(nonzero, lattices):
            vc.lattice.content_and_primitive_part(v, lat)
        t = self._span("lattice.content_s", i, "probe", t)
        if text is not None:
            vc.words.parse_equation(text)
            self._span("words.parse_s", i, "probe", t)
        self._close(probe_start)
        if ("involutions.characters", i) not in self.counts:
            self._count(i, module, nonzero, spec, text, args)

    def _count(self, i, module, nonzero, spec, text, args):
        c = self.counts
        c["involutions.characters", i] = len(module.characters)
        c["involutions.nonzero_components", i] = len(nonzero)
        verdict = self.vc.analyze(spec)
        if verdict.is_retract:
            return
        eq, solution = verdict.equation, verdict.solution
        c["words.nodes", i] = dag_nodes(eq.lhs, self.vc.words)
        c["words.length_bits", i] = eq.lhs.length.bit_length()
        c["words.rhs_bits", i] = eq.rhs_exponent.bit_length()
        if text is not None:
            c["words.equation_bytes", i] = len(text.encode())
        if args.verify:
            # deterministic: the operation count depends on the DAG only
            vc = self.vc
            ops = vc.CountingOps(spec.group.ops)
            vc.evaluate(eq.lhs, solution, ops)
            c["ambient.group_ops", i] = ops.count
            D = vc.dihedral.DihedralElement
            values = {name: D(3, 1) for name in eq.variables()}
            dops = vc.CountingOps(vc.DIHEDRAL_OPS)
            vc.evaluate(eq.lhs, values, dops)
            c["dihedral.group_ops", i] = dops.count * args.trials

    def metrics(self, pass_s):
        """Per-layer metrics, plus the traced pass and its overhead against
        the untraced operations timed in the same process."""
        durations = {}  # (span name, input index) -> seconds, one per pass
        for _, name, start, end, _, i, divisor, ticket in self.spans:
            durations.setdefault((name, i), []).append(
                self.clock.seconds(ticket, start, end) / divisor)

        def total(name):
            return sum(statistics.median(v) for (n, _), v in durations.items()
                       if n == name)

        out = {name: (total(name), "s") for name in STAGES}
        for name in COUNTS:
            out[name] = (sum(v for (n, _), v in self.counts.items()
                             if n == name), "count")
        out["words.equation_bytes"] = (out["words.equation_bytes"][0], "bytes")
        for name in MAXIMA:
            out[name] = (max([v for (n, _), v in self.counts.items()
                              if n == name], default=0), "bits")
        traced = total("op")
        out["trace.pass_s"] = (traced, "s")
        out["trace.overhead_pct"] = (100.0 * (traced / pass_s - 1.0), "%")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path):
        """Write every span, with its calibrated seconds, and every count."""
        seconds = self.clock.seconds
        with open(path, "w") as fh:
            json.dump({
                "workload": self.workload,
                "spans": [{"op": op, "name": n, "input": i, "start": s,
                           "end": e, "parent": p,
                           "seconds": seconds(t, s, e) / d}
                          for op, n, s, e, p, i, d, t in self.spans],
                "counts": [{"name": n, "input": i, "value": v}
                           for (n, i), v in sorted(self.counts.items())],
            }, fh)


def dag_nodes(root, words):
    """Number of distinct nodes reachable from a word DAG's root."""
    seen = {id(root)}
    stack = [root]
    while stack:
        w = stack.pop()
        if isinstance(w, words.Concat):
            children = w.parts
        elif isinstance(w, words.Pow):
            children = (w.base,)
        elif isinstance(w, words.Inv):
            children = (w.child,)
        else:
            children = ()
        for c in children:
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return len(seen)
