"""Command-line front end.

`verbalclosure analyze SPECFILE` parses a group spec, runs the decision
pipeline and prints a verdict report (exit 0 for a retraction, 10 for a
not-verbally-closed witness, 2 for spec errors).  `verbalclosure selftest`
runs a quick named battery of internal invariants.

`main` builds the argparse parser on its first call and reuses it for every
later call in the same process; each `parse_args` returns a fresh
namespace, so no option carries over from one call to the next.
"""

import argparse
import errno
import json
import os
import sys
import time

from .ambient import (
    GroupSpec,
    SpecError,
    analyze,
    verify_retraction,
    verify_solution_closed_form,
    verify_solution_in_G,
)
from .dihedral import spot_check_no_solution
from .words import serialize_chunks

SPOT_CHECK_BOUND = 50


def _format_vector(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


# ---------------------------------------------------------------------------
# the structured report


_escape = json.encoder.encode_basestring_ascii  # json's own, in C


def _write_json(value, out, pad):
    """Append the text of `value` to the list `out`, as json.dumps with
    indent=2 and sort_keys=True writes it at indentation `pad`.  A list
    of ints, as most report fields are, is joined in one call."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):  # NaN and the infinities as json has them
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if {*map(type, value)} == {int}:
            out.append("[\n" + inner + sep.join(map(int.__repr__, value))
                       + "\n" + pad + "]")
            return
        head = "[\n" + inner
        for item in value:
            out.append(head)
            head = sep
            _write_json(item, out, inner)
        out.append("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        head = "{\n" + inner
        for key in sorted(value):
            out.append(head + _escape(key) + ": ")
            head = ",\n" + inner
            _write_json(value[key], out, inner)
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def structured_text(payload):
    """The structured report: the text of json.dumps(payload, indent=2,
    sort_keys=True), written in one pass.  With indent set, json runs its
    pure-Python encoder; this writer escapes strings with json's C escaper
    and joins each list of ints at once."""
    out = []
    _write_json(payload, out, "")
    return "".join(out)


def build_report(verdict, args):
    """Assemble the human-readable report lines and the structured payload."""
    spec = verdict.spec
    data = verdict.data
    lines = []
    payload = {}
    lines.append("spec:")
    for raw in spec.to_text().strip().splitlines():
        lines.append("  " + raw)
    payload["spec"] = spec.to_text()
    pres = data.presentation
    lines.append(f"square subgroup: rank {pres.free_rank}, "
                 f"torsion order {pres.torsion_order}")
    lines.append(f"quotient 2-group: rank {data.c_rank} "
                 f"(generators {', '.join(data.c_names) or 'none'})")
    lines.append(f"a^2 coordinates: {_format_vector(verdict.a_squared)}")
    payload["square_rank"] = pres.free_rank
    payload["torsion_order"] = pres.torsion_order
    payload["c_rank"] = data.c_rank
    payload["c_generators"] = list(data.c_names)
    payload["a_squared"] = list(verdict.a_squared)

    report = verdict.report
    if verdict.is_retract:
        lines.append("verdict: Retract")
        payload["verdict"] = "Retract"
        rho = verdict.retraction
        lines.append(f"witness character: {rho.sign_character.label()}")
        lines.append("translation functional: "
                     + _format_vector(rho.functional))
        lines.append("finite normal subgroup invariants: "
                     + str(list(rho.torsion_invariants)))
        payload["witness_character"] = rho.sign_character.label()
        payload["functional"] = list(rho.functional)
        payload["torsion_invariants"] = list(rho.torsion_invariants)
        if args.verify:
            ok = verify_retraction(rho, spec, samples=args.samples,
                                   bound=args.bound, seed=args.seed)
            if ok and not args.samples:
                ok = None  # H is fixed, but no sample tested the rest
            lines.append(f"retraction verified (samples={args.samples}, "
                         f"bound={args.bound}, seed={args.seed}): "
                         + {True: "yes", False: "NO",
                            None: "nothing sampled"}[ok])
            payload["retraction_verified"] = ok
        return lines, payload, 0

    lines.append("verdict: NotVerballyClosed")
    payload["verdict"] = "NotVerballyClosed"
    lines.append("component contents by character:")
    payload["components"] = []
    for w in report.nonzero.values():
        lines.append(f"  {w.character.label()}  k={w.content}"
                     f"  lift={_format_vector(w.lift)}")
        payload["components"].append(
            {"character": w.character.label(), "content": w.content,
             "lift": list(w.lift)})
    vanishing = (1 << data.c_rank) - len(report.nonzero)
    if vanishing:
        lines.append(f"  every other character ({vanishing}): k=0")
    payload["vanishing_components"] = vanishing
    eq = verdict.equation
    lines.append(f"witness equation: rhs = a^{eq.rhs_exponent} "
                 f"(2 * 2^{eq.c_size} * {eq.torsion_order}), "
                 f"filler exponent {eq.filler}")
    payload["rhs_exponent"] = eq.rhs_exponent
    payload["filler"] = eq.filler
    payload["k_values"] = list(eq.k_values)
    cert = verdict.certificate
    lines.append("no-solution certificate:")
    for raw in cert.to_table().splitlines():
        lines.append("  " + raw)
    valid = cert.is_valid()
    lines.append("certificate valid: " + ("yes" if valid else "NO"))
    payload["certificate_valid"] = valid
    if args.verify:
        ok = verify_solution_closed_form(eq, verdict.solution, spec)
        lines.append("ambient solution verified in G: "
                     + ("yes" if ok else "NO"))
        payload["solution_verified"] = ok
        bound, trials = SPOT_CHECK_BOUND, args.trials
        no_hit = (spot_check_no_solution(eq, bound, trials, seed=args.seed)
                  if trials else None)
        lines.append(f"spot check (bound={bound}, trials={trials}, "
                     f"seed={args.seed}): "
                     + {True: "no dihedral solution found",
                        False: "FOUND A SOLUTION", None: "nothing tried"}[no_hit])
        payload["spot_check_clean"] = no_hit
    return lines, payload, 10


def _check_writable(path):
    """Raise the OSError that opening PATH for writing would raise when its
    directory is missing or PATH is a directory, creating no file."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_analyze(args):
    try:
        # utf-8-sig: a byte-order mark before the header is not read as
        # part of it
        with open(args.specfile, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.specfile}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = GroupSpec.from_text(text)
        if args.filler in (1, -1):
            raise SpecError("filler exponent must not be +-1")
        if args.emit_equation:
            _check_writable(args.emit_equation)
        start = time.perf_counter()
        verdict = analyze(spec, filler=args.filler)
        try:  # every report prints the torsion order
            str(verdict.data.presentation.torsion_order)
        except ValueError:
            raise SpecError(
                "the torsion order of the square subgroup has more than "
                f"{sys.get_int_max_str_digits()} digits, past Python's "
                "limit on printing an integer") from None
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.emit_equation}: {exc}",
              file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    lines, payload, code = build_report(verdict, args)
    if args.timing:
        lines.append(f"elapsed: {elapsed:.3f}s")
        payload["elapsed_seconds"] = elapsed
    if args.emit_equation and verdict.equation is not None:
        # streamed tower by tower, so memory does not grow with the file
        try:
            with open(args.emit_equation, "w") as fh:
                fh.writelines(serialize_chunks(verdict.equation))
        except OSError as exc:
            print(f"error: cannot write {args.emit_equation}: {exc}",
                  file=sys.stderr)
            return 2
        lines.append(f"equation written to {args.emit_equation}")
    if args.format == "structured":
        print(structured_text(payload))
    else:
        print("\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks():
    """Named invariant checks, each a zero-argument callable returning bool."""
    from fractions import Fraction

    from .ambient import (
        DInf,
        image_of_a_squared,
        square_data,
        validate_spec,
    )
    from .dihedral import InvalidEquation, certify_no_solution
    from .involutions import Character, InvolutionModule, project
    from .lattice import AbelianPresentation, Lattice, membership_solve
    from .words import build_v_chi, coset_words_of, evaluate, x_var

    def swap_module():
        pres = AbelianPresentation(2, [])
        mod = InvolutionModule(pres, [[[0, 1], [1, 0]]])
        plus = Character((1,))
        if project(mod, (2, 5), plus) != (Fraction(7, 2), Fraction(7, 2)):
            return False
        closure = Lattice.from_generators(
            [(Fraction(1, 2), Fraction(1, 2)),
             (Fraction(1, 2), Fraction(-1, 2))])
        if membership_solve(closure, (2, 5)) != (7, -3):
            return False
        return not mod.is_simple((2, 5)).simple

    def projection_sign_law():
        # conjugation acts on a chi-component by the character value
        pres = AbelianPresentation(2, [])
        mod = InvolutionModule(pres, [[[0, 1], [1, 0]]])
        for chi in mod.characters:
            for e in ((1, 0), (0, 1), (2, 5)):
                v = mod.project(e, chi)
                img = tuple(sum(Fraction(mod.actions[0][i][j]) * v[j]
                                for j in range(2)) for i in range(2))
                if img != tuple(chi.signs[0] * x for x in v):
                    return False
        return True

    def component_sum():
        pres = AbelianPresentation(3, [(0, 0, 2)])
        act = [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]
        mod = InvolutionModule(pres, act)
        return all(mod.verify_component_identity(v)
                   for v in ((1, 0, 0), (3, 5, 1), (-2, 7, 0)))

    def nested_word_collapse():
        # evaluate v_chi at the coset representatives, that is w_chi,
        # through the ambient group and compare with the eigenprojection
        # collapse on the two-dihedral-factor example
        spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
        data = square_data(spec)
        group = spec.group
        q = group.evaluate_word((("a1", 2), ("a2", 4)))  # a1^2 a2^4 in Q
        assignment = {x_var(j): d for j, d in enumerate(data.d_elements)}
        assignment["y"] = q
        total = group.identity
        for chi in data.module.characters:
            w = build_v_chi(chi, coset_words_of(data.c_rank))
            total = group.mul(total, evaluate(w, assignment, group.ops))
        # product over all characters of q^(2^|C|) components reassembles
        # q^(2^|C|) with |C| = 2^c_rank
        return total == group.pow(q, 1 << (1 << data.c_rank))

    def two_factor_fixture():
        spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
        data = square_data(spec)
        if image_of_a_squared(spec, data) != (3, 5):
            return False
        verdict = analyze(spec)
        if verdict.is_retract or verdict.equation.rhs_exponent != 2 ** 17:
            return False
        contents = sorted(verdict.equation.contents.values())
        return (contents == [3, 5]
                and verdict.certificate.is_valid()
                and verify_solution_in_G(verdict.equation, verdict.solution,
                                         spec))

    def retraction_fixture():
        spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1*a2^5"))
        verdict = analyze(spec)
        return (verdict.is_retract
                and verify_retraction(verdict.retraction, spec,
                                      samples=200, bound=20, seed=7))

    def certificate_rejects_units():
        spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
        eq = analyze(spec).equation
        eq.contents = {**eq.contents, 0: 1}  # a unit content slipped through
        try:
            certify_no_solution(eq)
        except InvalidEquation:
            return True
        return False

    return [
        ("swap-module fixture", swap_module),
        ("projection sign law", projection_sign_law),
        ("component sum identity", component_sum),
        ("nested word collapse", nested_word_collapse),
        ("two-factor witness fixture", two_factor_fixture),
        ("retraction fixture", retraction_fixture),
        ("certificate rejects unit exponents", certificate_rejects_units),
    ]


def cmd_selftest(args):
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure with a name attached
            print(f"selftest failed: {name} ({type(exc).__name__}: {exc})")
            return 1
        if not ok:
            print(f"selftest failed: {name}")
            return 1
        print(f"selftest ok: {name}")
    print("selftest passed")
    return 0


def nonnegative_int(text):
    """The argparse type of counts and bounds: an integer, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def make_parser():
    parser = argparse.ArgumentParser(
        prog="verbalclosure",
        description="Decide verbal closedness of a dihedral subgroup of a "
                    "product of dihedral and cyclic factors.")
    sub = parser.add_subparsers(dest="command", required=True)
    pa = sub.add_parser("analyze", help="analyze a group spec file")
    pa.add_argument("specfile")
    pa.add_argument("--emit-equation", metavar="PATH",
                    help="write the serialized witness equation to PATH")
    pa.add_argument("--seed", type=int, default=0,
                    help="seed for sampled verification")
    pa.add_argument("--filler", type=int, default=0,
                    help="filler exponent for vanishing components (not +-1)")
    pa.add_argument("--verify", action="store_true",
                    help="run sampled verification of the verdict payload")
    pa.add_argument("--samples", type=nonnegative_int, default=10000,
                    help="sample count for retraction verification")
    pa.add_argument("--bound", type=nonnegative_int, default=100,
                    help="coordinate bound for the retraction samples only "
                         "(the spot check's is fixed; the report prints it)")
    pa.add_argument("--trials", type=nonnegative_int, default=1000,
                    help="trial count for the no-solution spot check")
    pa.add_argument("--format", choices=("text", "structured"),
                    default="text")
    pa.add_argument("--timing", action="store_true",
                    help="append elapsed time (breaks byte determinism)")
    pa.set_defaults(func=cmd_analyze)
    ps = sub.add_parser("selftest", help="run the internal invariant battery")
    ps.set_defaults(func=cmd_selftest)
    return parser


_parser = None  # built by the first `main` call, shared by the later ones


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader has gone (`analyze SPEC | head -3`).  Python's own
        # flush at exit would raise again, so stdout is pointed at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
