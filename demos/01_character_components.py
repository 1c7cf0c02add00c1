"""Walkthrough: character components of an involution module.

Take Q = Z^2 with a single involution swapping the coordinates.  The two
characters of the acting group split Q (rationally) into eigenlines; an
element is "simple" when one of its eigencomponents is primitive in the
component lattice.  Simplicity is the computable switch between the two
verdicts of the analyzer, so this tiny module is worth understanding on
its own.

Run: python3 demos/01_character_components.py
"""

from fractions import Fraction

from verbalclosure import (
    AbelianPresentation,
    Character,
    InvolutionModule,
    Lattice,
    membership_solve,
    project,
)


def main():
    pres = AbelianPresentation(2, [])
    swap = [[0, 1], [1, 0]]
    mod = InvolutionModule(pres, [swap])
    print("module: Z^2 with the coordinate swap involution\n")

    q = (2, 5)
    plus, minus = mod.characters
    for chi in (plus, minus):
        print(f"{chi.label()}-component of {q}: {project(mod, q, chi)}")

    print("\ncomponent lattices:")
    for chi in (plus, minus):
        L = mod.eigenlattice(chi)
        print(f"  {chi.label()}: basis {L.basis}")

    closure = Lattice.from_generators(
        [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2))])
    coeffs = membership_solve(closure, q)
    print(f"\n{q} over the eigenbasis (1/2,1/2), (1/2,-1/2): "
          f"coefficients {coeffs}")

    print("\nsimplicity over a small range (S = simple, . = not):")
    for x in range(-4, 5):
        row = "".join("S" if mod.is_simple((x, y)).simple else "."
                      for y in range(-4, 5))
        print(f"  x={x:+d}  {row}")
    print("\nthe S's trace the lines x + y = +-1 and x - y = +-1:")
    print("exactly the elements whose eigencomponent content is a unit.")


if __name__ == "__main__":
    main()
