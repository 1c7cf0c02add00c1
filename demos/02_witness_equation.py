"""End to end: a dihedral subgroup that is not verbally closed.

Inside G = D_inf x D_inf, the subgroup H generated by b = b1*b2 and
a = a1^3*a2^5 is an infinite dihedral group.  Because a^2 has component
contents 3 and 5 (neither a unit), no retraction G -> H exists; instead
the analyzer produces an equation solvable in G whose unsolvability in H
is proved by a finite table of integer non-divisibility facts.

Run: python3 demos/02_witness_equation.py
"""

from verbalclosure import (
    DInf,
    GroupSpec,
    analyze,
    serialize_equation,
    spot_check_no_solution,
    validate_spec,
    verify_solution_in_G,
)


def main():
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
    print(spec.to_text())

    verdict = analyze(spec)
    print(f"verdict: {verdict.kind}")
    print(f"a^2 in square-subgroup coordinates: {verdict.a_squared}")

    # the report keeps only the nonzero components, keyed by character
    # index; the other 14 of the 16 characters have content 0
    print("\nnonzero character components of a^2:")
    for index, w in verdict.report.nonzero.items():
        print(f"  #{index} {w.character.label()}: content {w.content}, "
              f"lift {w.lift}")

    eq = verdict.equation
    print(f"\nwitness equation: LHS = a^{eq.rhs_exponent}"
          f"  (2 * 2^{eq.c_size} * {eq.torsion_order})")
    print(f"variables: {len(eq.variables())}  "
          f"(DAG length if flattened: {eq.lhs.length})")

    ok = verify_solution_in_G(eq, verdict.solution, spec)
    print(f"\nexplicit ambient solution verifies in G: {ok}")
    print("the solution assigns the coset representatives to the x's and")
    print("square roots of the component lifts to the live y-slots:")
    for name, value in sorted(verdict.solution.items()):
        if value != spec.group.identity:
            print(f"  {name} = {value}")

    print("\nno-solution certificate (one row per nonzero component, then "
          "the filler's row for every other flip pattern):")
    print(verdict.certificate.to_table())
    print(f"\ncertificate re-verifies: {verdict.certificate.is_valid()}")

    clean = spot_check_no_solution(eq, bound=20, trials=2000, seed=0)
    print(f"randomised corroboration (2000 dihedral substitutions): "
          f"{'no solution found' if clean else 'FOUND ONE (bug!)'}")

    print("\nfirst lines of the serialized equation:")
    for line in serialize_equation(eq).splitlines()[:6]:
        print(" ", line)


if __name__ == "__main__":
    main()
