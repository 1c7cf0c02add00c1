"""The package names and call shapes that the benchmark uses.

`bench/tracing.py` replays `analyze` stage by stage through the public
functions, and `bench/run.py` checks each report against the verdict, but
tier-1 does not run `bench/`.  This test makes those calls, with the
benchmark's argument shapes, on one witness and one Retract spec, so that a
change which drops a name or a parameter fails here too.  Each block names
the benchmark function it mirrors, and each call the benchmark line; when
the benchmark stops making a call, its mirror goes with it.
"""

import json
from argparse import Namespace

import pytest

import verbalclosure as vc
import verbalclosure.cli  # noqa: F401  run.py, load_program: import verbalclosure.cli

SPECS = {
    "witness": "groupspec v1\nfactors = [DInf, DInf]\nb = b1*b2\n"
               "a = a1^3*a2^5\n",
    "retract": "groupspec v1\nfactors = [DInf, DInf]\nb = b1*b2\n"
               "a = a1*a2^5\n",
}


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_benchmark_call_shapes(kind, tmp_path):
    path = tmp_path / "s.spec"
    path.write_text(SPECS[kind])
    amb, cli, dih, wds = vc.ambient, vc.cli, vc.dihedral, vc.words

    # tracing.py, Tracer._decide
    args = cli.make_parser().parse_args(  # cli.make_parser().parse_args(argv)
        ["analyze", str(path), "--verify", "--samples", "20", "--trials", "4"])
    spec = amb.GroupSpec.from_text(path.read_text())  # amb.GroupSpec.from_text(fh.read())
    amb.validate_spec(spec)  # amb.validate_spec(spec)
    data = amb.square_data(spec)  # amb.square_data(spec)
    a_sq = amb.image_of_a_squared(spec, data)  # amb.image_of_a_squared(spec, data)
    report = data.module.is_simple(a_sq)  # data.module.is_simple(a_sq)
    if report.simple:
        # amb.build_retraction(spec, data, a_sq, report.witness_character)
        rho = amb.build_retraction(spec, data, a_sq, report.witness_character)
        # amb.Verdict(kind="retract", spec=..., retraction=rho)
        verdict = amb.Verdict(kind="retract", spec=spec, data=data,
                              report=report, a_squared=a_sq, retraction=rho)
    else:
        # wds.build_witness_equation(report, 1, data.presentation.torsion_order,
        #     data.c_rank, data.coset_words, filler=args.filler)
        eq = wds.build_witness_equation(
            report, 1, data.presentation.torsion_order, data.c_rank,
            data.coset_words, filler=args.filler)
        solution = amb.g_solution(eq, data, report)  # amb.g_solution(eq, data, report)
        cert = dih.certify_no_solution(eq)  # dih.certify_no_solution(eq)
        # amb.Verdict(kind="not-verbally-closed", spec=..., certificate=cert)
        verdict = amb.Verdict(kind="not-verbally-closed", spec=spec,
                              data=data, report=report, a_squared=a_sq,
                              equation=eq, solution=solution, certificate=cert)
    # cli.build_report(verdict, Namespace(**{**vars(args), "verify": False}))
    _, payload, code = cli.build_report(
        verdict, Namespace(**{**vars(args), "verify": False}))
    json.dumps(payload, indent=2, sort_keys=True)  # json.dumps(payload, ...)
    assert code == (0 if report.simple else 10)
    if report.simple:
        # amb.verify_retraction(rho, spec, samples=args.samples,
        #     bound=args.bound, seed=args.seed)
        assert amb.verify_retraction(rho, spec, samples=args.samples,
                                     bound=args.bound, seed=args.seed)
    else:
        assert amb.verify_solution_in_G(eq, solution, spec)  # amb.verify_solution_in_G(eq, solution, spec)
        # dih.spot_check_no_solution(eq, cli.SPOT_CHECK_BOUND, args.trials,
        #     seed=args.seed)
        assert dih.spot_check_no_solution(eq, cli.SPOT_CHECK_BOUND,
                                          args.trials, seed=args.seed)
        text = wds.serialize_equation(eq)  # wds.serialize_equation(eq)
        # the replay writes the equation that analyze builds
        assert text == vc.serialize_equation(vc.analyze(spec).equation)

    # tracing.py, Tracer._probe
    # vc.involutions.InvolutionModule(data.presentation, data.module.actions,
    #     check=False)
    module = vc.involutions.InvolutionModule(
        data.presentation, data.module.actions, check=False)
    f = data.presentation.free_rank  # data.presentation.free_rank
    n = data.presentation.rank  # data.presentation.rank
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    for chi in module.characters:  # module.characters
        v = module.project_free(a_sq, chi)  # module.project_free(a_sq, chi)
        if any(v):
            # vc.lattice.Lattice.from_generators(g, dim=f)
            lat = vc.lattice.Lattice.from_generators(
                [module.project_free(e, chi) for e in units], dim=f)
            vc.lattice.content_and_primitive_part(v, lat)  # vc.lattice.content_and_primitive_part(v, lat)
    if not report.simple:
        vc.words.parse_equation(text)  # vc.words.parse_equation(text)

    # tracing.py, Tracer._count
    verdict = vc.analyze(spec)  # self.vc.analyze(spec)
    if not verdict.is_retract:  # verdict.is_retract
        eq, solution = verdict.equation, verdict.solution  # verdict.equation, verdict.solution
        assert eq.lhs.length.bit_length()  # eq.lhs.length.bit_length()
        assert eq.rhs_exponent.bit_length()  # eq.rhs_exponent.bit_length()
        ops = vc.CountingOps(spec.group.ops)  # vc.CountingOps(spec.group.ops)
        vc.evaluate(eq.lhs, solution, ops)  # vc.evaluate(eq.lhs, solution, ops)
        D = vc.dihedral.DihedralElement  # vc.dihedral.DihedralElement
        values = {name: D(3, 1) for name in eq.variables()}  # eq.variables()
        dops = vc.CountingOps(vc.DIHEDRAL_OPS)  # vc.CountingOps(vc.DIHEDRAL_OPS)
        vc.evaluate(eq.lhs, values, dops)  # vc.evaluate(eq.lhs, values, dops)
        assert ops.count == dops.count > 0

    # run.py, check_inputs
    # vc.analyze(vc.GroupSpec.from_text(inp.spec.text()))
    verdict = vc.analyze(vc.GroupSpec.from_text(path.read_text()))
    if verdict.is_retract:
        group = verdict.spec.group  # verdict.spec.group
        # verdict.retraction.apply(group.generator_element(name))
        #     for name in group.generators
        images = {name: verdict.retraction.apply(group.generator_element(name))
                  for name in group.generators}
        assert images.keys() == group.generators.keys()
    else:
        vc.serialize_equation(verdict.equation)  # vc.serialize_equation(verdict.equation)
        rows = verdict.certificate.rows  # verdict.certificate.rows
        assert len(rows) == 1 << verdict.data.c_rank  # verdict.data.c_rank
        assert verdict.solution  # verdict.solution

    # run.py, measure
    assert callable(vc.cli.main)  # vc.cli.main
