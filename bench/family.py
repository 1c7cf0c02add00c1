"""Seeded group specs for the benchmark workloads and their closed-form
verdicts.

Every generated spec is a product of DInf, Zed and ZedMod(k) factors with

* ``a`` a product of translations a_i^p_i in the DInf factors, plus the
  involution c_j^(k/2) in some even ZedMod factors;
* ``b`` a reflection a_i^s_i * b_i in every DInf factor with p_i != 0 (and,
  at random, in some with p_i = 0), plus c_j^(k/2) in some even ZedMod
  factors.

For this family the verdict has a closed form (``expected``), so the
benchmark checks the program against arithmetic that shares no code with it.
"""

import random
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Spec:
    """One generated input: factor kinds and the two defining words.

    ``factors`` holds ("DInf",), ("Zed",) or ("ZedMod", k); ``a`` and ``b``
    are tuples of (generator, exponent)."""

    name: str
    factors: tuple
    a: tuple
    b: tuple

    def text(self):
        names = ", ".join(f[0] if len(f) == 1 else f"ZedMod({f[1]})"
                          for f in self.factors)
        return (f"groupspec v1\nfactors = [{names}]\n"
                f"b = {_word_text(self.b)}\na = {_word_text(self.a)}\n")

    def dinf_exponents(self):
        """p_i for every DInf factor, in factor order."""
        ex = dict(self.a)
        return [ex.get(f"a{j}", 0) for j, f in enumerate(self.factors, 1)
                if f[0] == "DInf"]


@dataclass(frozen=True)
class Expected:
    """The closed-form outcome of ``analyze`` on a generated spec."""

    retract: bool
    c_rank: int
    torsion_order: int
    contents: frozenset  # nonzero component contents; empty for Retract
    rhs_exponent: int  # 0 for Retract


def _word_text(word):
    if not word:
        return "1"
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in word)


def expected(spec):
    """Closed-form verdict: m = 2*#DInf + #Zed + #even ZedMod and
    T = prod k/gcd(2,k); Retract iff some DInf exponent of a is +-1, else the
    nonzero contents are {|p_i| : p_i != 0} and the right-hand side is
    a^(2 * 2^(2^m) * T)."""
    m = 0
    t = 1
    for f in spec.factors:
        if f[0] == "DInf":
            m += 2
        elif f[0] == "Zed":
            m += 1
        else:
            k = f[1]
            m += k % 2 == 0
            t *= k // gcd(2, k)
    ps = spec.dinf_exponents()
    if any(abs(p) == 1 for p in ps):
        return Expected(True, m, t, frozenset(), 0)
    return Expected(False, m, t, frozenset(abs(p) for p in ps if p),
                    2 * (1 << (1 << m)) * t)


MODULI = {"odd": (3, 5, 7, 9), "even": (2, 4, 6, 8), "even4": (4, 6, 8)}


def make_spec(rng, name, kinds, retract, zeros=True):
    """A random spec with the given factor kinds and verdict.

    Kinds are "DInf", "Zed", "odd" (ZedMod of odd modulus), "even" (even
    modulus) and "even4" (even modulus of at least 4, so the factor adds
    torsion).  Exponents, shifts, moduli, optional involution components and
    the factor order are drawn from ``rng``; with ``zeros`` false no DInf
    exponent of a vanishes, which keeps the number of nonzero components
    (and so the cost) of a shape the same for every seed."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    dinf = [j for j, k in enumerate(kinds, 1) if k == "DInf"]
    if not dinf:
        raise ValueError("the family needs a DInf factor")
    # exponents: a witness needs every |p| != 1 and some p != 0; a retract
    # needs some |p| = 1
    magnitudes = (0, 0, 2, 3, 4, 5, 6, 7, 9) if zeros else (2, 3, 4, 5, 7, 9)
    ps = {j: rng.choice(magnitudes) * rng.choice((1, -1)) for j in dinf}
    if retract:
        ps[rng.choice(dinf)] = rng.choice((1, -1))
    elif not any(ps.values()):
        ps[rng.choice(dinf)] = rng.choice((3, -3, 5, -5))
    factors, a, b = [], [], []
    for j, kind in enumerate(kinds, 1):
        if kind == "DInf":
            factors.append(("DInf",))
            p = ps[j]
            if p:
                a.append((f"a{j}", p))
            if p or rng.random() < 0.5:
                s = rng.randint(-4, 4)
                if s:
                    b.append((f"a{j}", s))
                b.append((f"b{j}", 1))
        elif kind == "Zed":
            factors.append(("Zed",))
        else:
            k = rng.choice(MODULI[kind])
            factors.append(("ZedMod", k))
            if k % 2 == 0:
                if rng.random() < 0.5:
                    a.append((f"c{j}", k // 2))
                if rng.random() < 0.5:
                    b.append((f"c{j}", k // 2))
    return Spec(name, tuple(factors), tuple(a), tuple(b))


# Shapes are (factor kinds, verdict).  Each workload fixes how many inputs
# of each shape it draws, so its cost depends on the seed only through
# exponents, shifts and moduli.  ladder and check have an odd number of
# inputs and their middle-cost inputs (the m = 6 witnesses of ladder, the
# m = 6 retract of check) are well apart from their neighbours, so the
# median operation time lands on the same shape whatever the seed.

SWEEP_SHAPES = [
    (("DInf",), False),                        # m = 2
    (("DInf",), True),
    (("DInf", "odd"), False),                  # m = 2, torsion
    (("DInf", "odd"), True),
    (("DInf", "Zed"), False),                  # m = 3
    (("DInf", "Zed"), True),
    (("DInf", "even"), False),                 # m = 3
    (("DInf", "even", "odd"), True),
    (("DInf", "DInf"), False),                 # m = 4
    (("DInf", "DInf"), True),
    (("DInf", "Zed", "even"), False),          # m = 4
    (("DInf", "Zed", "Zed", "odd"), True),
    (("DInf", "even", "even"), False),         # m = 4, torsion
    (("DInf", "DInf", "odd"), False),          # m = 4, torsion
    (("DInf", "DInf", "odd"), True),
]
SWEEP_PER_SHAPE = 20

LADDER_SHAPES = [
    (("DInf", "DInf", "Zed"), False),          # m = 5
    (("DInf", "DInf", "even"), True),          # m = 5
    # three m = 6 witnesses hold the median operation: it is the median of
    # three times as many samples as one input would give
    (("DInf", "DInf", "DInf"), False),         # m = 6
    (("DInf", "DInf", "DInf"), False),
    (("DInf", "DInf", "DInf"), False),
    (("DInf", "DInf", "DInf"), True),          # m = 6
    (("DInf", "DInf", "odd", "even4"), False),  # m = 5, torsion
    (("DInf", "DInf", "DInf", "even4"), False),  # m = 7, torsion
    (("DInf", "DInf", "DInf", "Zed"), True),   # m = 7
    (("DInf", "DInf", "DInf", "DInf"), False),  # m = 8
    (("DInf", "DInf", "DInf", "DInf"), True),  # m = 8
]

CHECK_SHAPES = [
    (("DInf", "DInf"), False),                 # m = 4
    (("DInf", "DInf"), True),
    (("DInf", "DInf", "odd"), False),          # m = 4, torsion
    (("DInf", "DInf", "Zed"), False),          # m = 5
    (("DInf", "DInf", "even"), True),          # m = 5
    (("DInf", "DInf", "even4"), False),        # m = 5, torsion
    (("DInf", "DInf", "DInf"), False),         # m = 6
    (("DInf", "DInf", "DInf"), True),          # m = 6
    (("DInf", "DInf", "Zed", "even4"), False),  # m = 6, torsion
]

WORKLOADS = {  # shapes, inputs per shape, whether exponents may vanish
    "sweep": (SWEEP_SHAPES, SWEEP_PER_SHAPE, True),
    "ladder": (LADDER_SHAPES, 1, False),
    "check": (CHECK_SHAPES, 1, False),
}


def workload_specs(workload, seed):
    """The fixed input list of a workload for a seed."""
    shapes, per_shape, zeros = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for si, (kinds, retract) in enumerate(shapes):
        for r in range(per_shape):
            specs.append(make_spec(rng, f"{workload}-{si:02d}-{r:02d}",
                                   kinds, retract, zeros))
    return specs
