"""Output checks that share no arithmetic with the program.

The benchmark checks each distinct input once, outside the timed region:

* the structured report against the closed-form verdict of ``family``;
* a witness equation by reading its serialized file and evaluating it, node
  by node, under the program's ambient solution in the product-group
  arithmetic below; the value must be a^rhs;
* a certificate by its coverage of all 2^m flip patterns;
* a retraction by the images of the generators: they must satisfy the
  defining relations of G, lie in H = <a, b> and send the words a and b to
  themselves.

Problems are returned as short strings naming the spec and counts, never
the repr of a program object (a word DAG's repr is its flattened word).
"""

import re
from itertools import product


# ---------------------------------------------------------------------------
# product-group arithmetic: a DInf coordinate is (translation, flip) for
# a^t b^f; a Zed coordinate is an int; a ZedMod(k) coordinate is an int mod k


class Factor:
    def __init__(self, kind, modulus=0):
        self.kind = kind
        self.modulus = modulus
        self.identity = (0, 0) if kind == "DInf" else 0

    def mul(self, x, y):
        if self.kind == "DInf":
            return (x[0] - y[0] if x[1] else x[0] + y[0], x[1] ^ y[1])
        if self.kind == "Zed":
            return x + y
        return (x + y) % self.modulus

    def inv(self, x):
        if self.kind == "DInf":
            return x if x[1] else (-x[0], 0)
        if self.kind == "Zed":
            return -x
        return -x % self.modulus

    def pow(self, x, e):
        if self.kind == "DInf":
            if x[1]:
                return x if e % 2 else (0, 0)
            return (x[0] * e, 0)
        if self.kind == "Zed":
            return x * e
        return x * e % self.modulus


class ProductGroup:
    """Direct product of the factors of a generated spec."""

    def __init__(self, factors):
        self.factors = [Factor(*f) for f in factors]
        self.identity = tuple(f.identity for f in self.factors)

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def inv(self, x):
        return tuple(f.inv(a) for f, a in zip(self.factors, x))

    def pow(self, x, e):
        return tuple(f.pow(a, e) for f, a in zip(self.factors, x))

    def generator(self, name):
        j = int(name[1:]) - 1
        f = self.factors[j]
        out = list(self.identity)
        if name[0] == "a":
            out[j] = (1, 0)
        elif name[0] == "b":
            out[j] = (0, 1)
        else:
            out[j] = 1 % f.modulus if f.modulus else 1
        return tuple(out)

    def generator_names(self):
        names = []
        for j, f in enumerate(self.factors, 1):
            if f.kind == "DInf":
                names += [f"a{j}", f"b{j}"]
            else:
                names.append(("t" if f.kind == "Zed" else "c") + str(j))
        return names

    def word(self, word, images=None):
        """Value of a (generator, exponent) word; ``images`` maps generator
        names to elements and defaults to the generators themselves."""
        value = self.identity
        for name, e in word:
            g = images[name] if images is not None else self.generator(name)
            value = self.mul(value, self.pow(g, e))
        return value


def from_program(element):
    """An ambient element of the program (DihedralElement or int per
    coordinate) in this module's representation."""
    return tuple((c.translation, c.flip) if hasattr(c, "flip") else c
                 for c in element)


# ---------------------------------------------------------------------------
# serialized equations


_NODE = re.compile(r"\((n\d+) \((gen|inv|cat|pow)((?: [^ ()]+)*)\)\)")
_LHS = re.compile(r"\(lhs (n\d+)\)")
_RHS = re.compile(r"\(rhs (\w+) (-?\d+)\)")


class EquationFile:
    """A serialized witness equation: nodes in definition order, each a
    (kind, arguments) pair whose node arguments are earlier indices."""

    def __init__(self, text):
        self.nodes = []
        index = {}
        for label, kind, args in _NODE.findall(text):
            args = args.split()
            if kind == "gen":
                node = ("gen", args[0])
            elif kind == "pow":
                node = ("pow", index[args[0]], int(args[1]))
            else:
                node = (kind, tuple(index[a] for a in args))
            index[label] = len(self.nodes)
            self.nodes.append(node)
        lhs, rhs = _LHS.search(text), _RHS.search(text)
        if lhs is None or rhs is None:
            raise ValueError("equation file lacks its lhs or rhs form")
        self.lhs = index[lhs.group(1)]
        self.rhs_generator = rhs.group(1)
        self.rhs_exponent = int(rhs.group(2))

    def evaluate(self, factor, values):
        """Value of the left-hand side in one factor; ``values`` maps each
        variable to its coordinate in that factor.  Nodes are defined before
        use, so one forward pass evaluates the whole DAG."""
        out = []
        mul, ident = factor.mul, factor.identity
        for node in self.nodes:
            kind = node[0]
            if kind == "gen":
                v = values[node[1]]
            elif kind == "cat":
                v = ident
                for i in node[1]:
                    v = mul(v, out[i])
            elif kind == "inv":
                v = factor.inv(out[node[1][0]])
            else:
                v = factor.pow(out[node[1]], node[2])
            out.append(v)
        return out[self.lhs]


# ---------------------------------------------------------------------------
# checks


def describe(spec):
    return spec.text().strip().replace("\n", "; ")


def check_report(spec, payload, exp, verify):
    """Compare the structured report of one input with the closed form."""
    problems = []
    verdict = "Retract" if exp.retract else "NotVerballyClosed"
    if payload.get("verdict") != verdict:
        problems.append(f"verdict {payload.get('verdict')}, expected {verdict}")
    if payload.get("c_rank") != exp.c_rank:
        problems.append(f"c_rank {payload.get('c_rank')}, expected {exp.c_rank}")
    if payload.get("torsion_order") != exp.torsion_order:
        problems.append(f"torsion order {payload.get('torsion_order')}, "
                        f"expected {exp.torsion_order}")
    if not exp.retract:
        if payload.get("rhs_exponent") != exp.rhs_exponent:
            problems.append(
                f"rhs exponent of {int(payload.get('rhs_exponent') or 0).bit_length()} "
                f"bits, expected {exp.rhs_exponent.bit_length()} bits")
        contents = frozenset(abs(k) for k in payload.get("k_values", ()) if k)
        if contents != exp.contents:
            problems.append(f"contents {sorted(contents)}, "
                            f"expected {sorted(exp.contents)}")
        if payload.get("certificate_valid") is not True:
            problems.append("certificate reported invalid")
    flags = (("retraction_verified",) if exp.retract
             else ("solution_verified", "spot_check_clean"))
    for flag in flags if verify else ():
        if payload.get(flag) is not True:
            problems.append(f"{flag} is {payload.get(flag)}")
    return [f"{describe(spec)}: {p}" for p in problems]


def check_witness(spec, equation_text, solution, certificate_rows, c_rank):
    """Evaluate a serialized witness equation under the program's ambient
    solution; check that the certificate covers every flip pattern."""
    group = ProductGroup(spec.factors)
    eq = EquationFile(equation_text)
    problems = []
    values = {name: from_program(v) for name, v in solution.items()}
    lhs = tuple(eq.evaluate(f, {name: v[j] for name, v in values.items()})
                for j, f in enumerate(group.factors))
    target = group.pow(group.word(spec.a), eq.rhs_exponent)
    if eq.rhs_generator != "a" or lhs != target:
        problems.append(f"equation of {len(eq.nodes)} nodes does not "
                        f"evaluate to a^rhs under the ambient solution")
    seen = {tuple(row.delta) for row in certificate_rows}
    if len(certificate_rows) != 1 << c_rank or \
            seen != set(product((0, 1), repeat=c_rank)):
        problems.append(f"certificate has {len(certificate_rows)} rows covering "
                        f"{len(seen)} of {1 << c_rank} flip patterns")
    for row in certificate_rows:
        k = row.effective_exponent
        if abs(k) == 1 or row.target_exponent != eq.rhs_exponent or \
                row.subgroup_exponent != eq.rhs_exponent * k:
            problems.append(f"certificate row {row.delta} states no obstruction")
            break
    return [f"{describe(spec)}: {p}" for p in problems]


def in_h(group, a, b, g):
    """Whether g = a^n b^e for some integers n and e."""
    i = next(j for j, f in enumerate(group.factors)
             if f.kind == "DInf" and a[j][0] != 0)
    p, (s, fb) = a[i][0], b[i]
    t, e = g[i]
    if not fb or (t - s * e) % p:
        return False
    n = (t - s * e) // p
    return group.mul(group.pow(a, n), group.pow(b, e)) == g


def check_retraction(spec, images):
    """``images`` maps every generator name to its image under rho."""
    group = ProductGroup(spec.factors)
    rho = {name: from_program(g) for name, g in images.items()}
    one = group.identity
    a, b = group.word(spec.a), group.word(spec.b)
    problems = []
    for j, f in enumerate(group.factors, 1):
        if f.kind == "DInf":
            ra, rb = rho[f"a{j}"], rho[f"b{j}"]
            if group.mul(rb, rb) != one or \
                    group.pow(group.mul(ra, rb), 2) != one:
                problems.append(f"images break the relations of factor {j}")
        elif f.kind == "ZedMod" and group.pow(rho[f"c{j}"], f.modulus) != one:
            problems.append(f"image of c{j} has order not dividing {f.modulus}")
    names = group.generator_names()
    for x in names:
        for y in names:
            if x[1:] != y[1:] and group.mul(rho[x], rho[y]) != \
                    group.mul(rho[y], rho[x]):
                problems.append(f"images of {x} and {y} do not commute")
    if group.word(spec.a, rho) != a or group.word(spec.b, rho) != b:
        problems.append("rho does not fix a and b")
    outside = [x for x in names if not in_h(group, a, b, rho[x])]
    if outside:
        problems.append(f"images of {', '.join(outside)} lie outside H")
    return [f"{describe(spec)}: {p}" for p in problems]
