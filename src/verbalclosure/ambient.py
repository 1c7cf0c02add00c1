"""Concrete ambient groups and the retract-or-witness analyzer.

Supported ambient groups are finite direct products of infinite dihedral,
infinite cyclic and finite cyclic factors.  For such a group the subgroup
generated by all squares is abelian with one visible coordinate per factor,
the quotient by it is elementary abelian of exponent two, and the embedded
dihedral subgroup H = <b, a> can be analysed exactly: either a^2 is simple
in the square module and an explicit retraction G -> H is produced, or a
witness equation solvable in G but certified unsolvable in H is built.
"""

import operator
import re
from dataclasses import dataclass
from itertools import combinations, islice
from math import gcd

from .dihedral import (
    IDENTITY,
    DihedralElement,
    below,
    certify_no_solution,
    draw_element,
    draw_moduli,
    skip_below,
)
from .involutions import Character, InvolutionModule, c_index
from .lattice import AbelianPresentation, eye, kernel_basis
from .words import (
    Equation,
    GroupOps,
    _levels,
    _read,
    build_witness_equation,
    coset_words_of,
    x_var,
    y_var,
)


class SpecError(ValueError):
    """Invalid group specification."""


class SpecParseError(SpecError):
    pass


class NotAnInvolution(SpecError):
    pass


class NotInfiniteOrder(SpecError):
    pass


class NotInverted(SpecError):
    pass


class NotInQ(ValueError):
    """Element is not in the subgroup generated by squares."""


class NormalizationFailure(RuntimeError):
    """The built retraction does not fix a and b."""


# ---------------------------------------------------------------------------
# factors and elements
#
# Each factor class owns its arithmetic.  A factor provides its generator
# letters and generator(letter); identity, mul, inv, pow, random_element and
# has_infinite_order; q_letter, the generator whose square generates the
# factor's coordinate of Q, q_coordinate(x) and q_order (None when that
# coordinate is free); square_coordinate(x), the Q-coordinate of x·x in
# closed form; quotient_letters, the generators it contributes to G/Q, and
# coset_bits(x), the image of x on them.  random_element draws with
# `dihedral.below`, getrandbits as randrange draws it: below(rng,
# 2·bound + 1) − bound consumes exactly the bits of randint(−bound, bound).
# draw_moduli(bound) names the n of each below(rng, n) that random_element
# makes, in order, so a draw can be skipped bit for bit (`skip_below`).


@dataclass(frozen=True)
class DInf:
    """Infinite dihedral factor <a, b | b^2, (ab)^2> with DihedralElement
    coordinates; Q is <a^2> and G/Q is generated by a and b."""

    letters = ("a", "b")
    q_letter = "a"
    q_order = None
    quotient_letters = ("a", "b")
    identity = IDENTITY
    # builtins, so the product group's hot mul costs no Python frame
    mul = staticmethod(operator.mul)
    inv = staticmethod(DihedralElement.inverse)
    pow = staticmethod(operator.pow)
    draw_moduli = staticmethod(draw_moduli)
    random_element = staticmethod(draw_element)

    def __str__(self):
        return "DInf"

    def generator(self, letter):
        return DihedralElement(0, 1) if letter == "b" else DihedralElement(1, 0)

    def has_infinite_order(self, x):
        return x.flip == 0 and x.translation != 0

    def q_coordinate(self, x):
        if x.flip or x.translation % 2:
            raise NotInQ(f"{x!r} is outside the square subgroup")
        return x.translation // 2

    def square_coordinate(self, x):
        return 0 if x.flip else x.translation

    def coset_bits(self, x):
        return (x.translation & 1, x.flip)


@dataclass(frozen=True)
class Zed:
    """Infinite cyclic factor <t> with int coordinates; Q is <t^2> and G/Q
    is generated by t."""

    letters = ("t",)
    q_letter = "t"
    q_order = None
    quotient_letters = ("t",)
    identity = 0
    mul = staticmethod(operator.add)
    inv = staticmethod(operator.neg)
    pow = staticmethod(operator.mul)  # written additively: x^e is e * x

    def __str__(self):
        return "Zed"

    def generator(self, letter):
        return 1

    def draw_moduli(self, bound):
        return (2 * bound + 1,)

    def random_element(self, rng, bound):
        span, = self.draw_moduli(bound)
        return below(rng, span) - bound

    def has_infinite_order(self, x):
        return x != 0

    def q_coordinate(self, x):
        if x % 2:
            raise NotInQ(f"{x} is odd")
        return x // 2

    def square_coordinate(self, x):
        return x

    def coset_bits(self, x):
        return (x & 1,)


@dataclass(frozen=True)
class ZedMod:
    """Finite cyclic factor <c | c^k> with residue coordinates; Q is <c^2>,
    of order k // gcd(2, k).  For odd k that is the whole factor, which then
    contributes no generator to G/Q."""

    modulus: int
    letters = ("c",)
    q_letter = "c"
    identity = 0

    def __post_init__(self):
        if self.modulus < 1:
            raise SpecError("ZedMod modulus must be >= 1")

    def __str__(self):
        return f"ZedMod({self.modulus})"

    def generator(self, letter):
        return 1 % self.modulus

    def mul(self, x, y):
        return (x + y) % self.modulus

    def inv(self, x):
        return -x % self.modulus

    def pow(self, x, e):
        return x * e % self.modulus

    def draw_moduli(self, bound):
        return (self.modulus,)

    def random_element(self, rng, bound):
        modulus, = self.draw_moduli(bound)
        return below(rng, modulus)

    def has_infinite_order(self, x):
        return False

    @property
    def q_order(self):
        return self.modulus // gcd(2, self.modulus)

    @property
    def quotient_letters(self):
        return ("c",) if self.modulus % 2 == 0 else ()

    def q_coordinate(self, x):
        k = self.modulus
        if k % 2:
            return x * ((k + 1) // 2) % k
        if x % 2:
            raise NotInQ(f"{x} is odd mod {k}")
        return x // 2

    def square_coordinate(self, x):
        # 2x mod k: halved for even k, times the inverse of 2 for odd k
        return x % self.q_order

    def coset_bits(self, x):
        return (x & 1,) if self.modulus % 2 == 0 else ()


FACTOR_TYPES = (DInf, Zed, ZedMod)


class AmbientGroup:
    """Direct product of the supported factors; an element is a tuple with
    one coordinate per factor, in that factor's representation."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        for f in self.factors:
            if not isinstance(f, FACTOR_TYPES):
                raise SpecError(f"unsupported factor {f!r}")
        self.generators = {f"{letter}{j}": j - 1
                           for j, f in enumerate(self.factors, start=1)
                           for letter in f.letters}
        self.identity = tuple(f.identity for f in self.factors)
        # bound once: mul and inv are the hot calls of evaluating a word
        # DAG in G
        self._muls = tuple(f.mul for f in self.factors)
        self._invs = tuple(f.inv for f in self.factors)

    # plain loops: a comprehension costs one more frame per call
    def mul(self, x, y):
        out = []
        for mul, a, b in zip(self._muls, x, y):
            out.append(mul(a, b))
        return tuple(out)

    def inv(self, x):
        out = []
        for inv, a in zip(self._invs, x):
            out.append(inv(a))
        return tuple(out)

    def pow(self, x, e):
        return tuple([f.pow(a, e) for f, a in zip(self.factors, x)])

    @property
    def ops(self):
        return GroupOps(mul=self.mul, inv=self.inv, identity=self.identity)

    def generator_element(self, name):
        if name not in self.generators:
            raise SpecParseError(f"unknown generator {name!r}")
        j = self.generators[name]
        out = list(self.identity)
        out[j] = self.factors[j].generator(name[0])
        return tuple(out)

    def evaluate_word(self, word):
        """The element of a parsed word.  A term is a power of one factor's
        generator and the factors commute, so each term is multiplied into
        its own factor's coordinate alone."""
        val = list(self.identity)
        for name, exp in word:
            j = self.generators.get(name)
            if j is None:
                raise SpecParseError(f"unknown generator {name!r}")
            f = self.factors[j]
            val[j] = f.mul(val[j], f.pow(f.generator(name[0]), exp))
        return tuple(val)

    def random_element(self, rng, bound):
        return tuple([f.random_element(rng, bound) for f in self.factors])

    def has_infinite_order(self, x):
        return any(f.has_infinite_order(a) for f, a in zip(self.factors, x))


# ---------------------------------------------------------------------------
# spec files


# [0-9], here and in _FACTOR_RE, since \d and int() take any Unicode digit
_WORD_TERM = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\^(-?[0-9]+))?$")


def _spec_int(digits, what):
    """int(digits), or SpecParseError naming `what` when the literal is past
    Python's limit on int(str), 4,300 digits by default."""
    try:
        return int(digits)
    except ValueError:
        raise SpecParseError(
            f"{what} has {len(digits.lstrip('-'))} digits, past Python's "
            "limit on reading an integer") from None


def parse_word(text):
    """Parse products like a1^3*a2^5 into ((name, exp), ...); "1" is empty."""
    text = text.strip().strip('"').strip("'")
    if text in ("", "1"):
        return ()
    terms = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        m = _WORD_TERM.match(chunk)
        if not m:
            raise SpecParseError(f"malformed word term {chunk!r}")
        name, exp = m.group(1), m.group(2)
        terms.append((name, 1 if exp is None
                      else _spec_int(exp, f"the exponent of {name}")))
    return tuple(terms)


def word_to_text(word):
    if not word:
        return "1"
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in word)


_FACTOR_RE = re.compile(r"(DInf|Zed|ZedMod\(\s*([0-9]+)\s*\))$")


def parse_factor(text):
    text = text.strip()
    if not text:
        raise SpecParseError("empty factor entry")
    m = _FACTOR_RE.match(text)
    if not m:
        raise SpecParseError(f"unknown factor {text!r}")
    if m.group(1) == "DInf":
        return DInf()
    if m.group(1) == "Zed":
        return Zed()
    return ZedMod(_spec_int(m.group(2), "the modulus of ZedMod"))


_SPEC_KEYS = ("factors", "b", "a")  # each exactly once


class GroupSpec:
    """An ambient group plus the two words defining the dihedral subgroup."""

    def __init__(self, factors, b_word, a_word):
        self.factors = tuple(factors)
        self.b_word = parse_word(b_word) if isinstance(b_word, str) else tuple(b_word)
        self.a_word = parse_word(a_word) if isinstance(a_word, str) else tuple(a_word)
        self.group = AmbientGroup(self.factors)
        self.h_b = self.group.evaluate_word(self.b_word)
        self.h_a = self.group.evaluate_word(self.a_word)

    @classmethod
    def from_text(cls, text):
        entries = {}
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.extend(p.strip() for p in line.split(";") if p.strip())
        if not lines or not lines[0].startswith("groupspec"):
            raise SpecParseError("missing 'groupspec v1' header line")
        if lines[0].split() != ["groupspec", "v1"]:
            raise SpecParseError(f"unsupported spec version {lines[0]!r}")
        for line in lines[1:]:
            if "=" not in line:
                raise SpecParseError(f"expected key = value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _SPEC_KEYS or key in entries:
                raise SpecParseError(f"unknown or repeated key {key!r}")
            entries[key] = value
        for key in _SPEC_KEYS:
            if key not in entries:
                raise SpecParseError(f"missing key {key!r}")
        flist = entries["factors"].strip()
        if flist.startswith("[") and flist.endswith("]"):
            flist = flist[1:-1]
        # split on commas not inside ZedMod(...)
        parts = re.split(r",(?![^()]*\))", flist) if flist.strip() else []
        factors = [parse_factor(p) for p in parts]
        return cls(factors, entries["b"], entries["a"])

    def to_text(self):
        flist = ", ".join(str(f) for f in self.factors)
        return (f"groupspec v1\nfactors = [{flist}]\n"
                f"b = {word_to_text(self.b_word)}\n"
                f"a = {word_to_text(self.a_word)}\n")

    def __repr__(self):
        return (f"GroupSpec([{', '.join(map(str, self.factors))}], "
                f"b={word_to_text(self.b_word)!r}, a={word_to_text(self.a_word)!r})")


def validate_spec(spec):
    """Check that the two words really generate an infinite dihedral
    subgroup; raises a SpecError subclass naming the violated relation."""
    group = spec.group
    if spec.group.mul(spec.h_b, spec.h_b) != group.identity or \
            spec.h_b == group.identity:
        raise NotAnInvolution("b must have order exactly 2")
    if not group.has_infinite_order(spec.h_a):
        raise NotInfiniteOrder("a must have infinite order")
    conj = group.mul(group.mul(spec.h_b, spec.h_a), group.inv(spec.h_b))
    if conj != group.inv(spec.h_a):
        raise NotInverted("conjugation by b must invert a")
    return spec


# ---------------------------------------------------------------------------
# the square subgroup and its module structure


@dataclass
class SquareData:
    """The subgroup Q generated by all squares, as a presented abelian group
    with one coordinate per factor, together with the quotient 2-group data
    and its conjugation action.  Coordinate j is generated by the square of
    factor j's q_letter; the factor names that root, so none is stored."""

    spec: GroupSpec
    presentation: AbelianPresentation
    module: InvolutionModule
    c_names: list  # independent generators of G/Q, in factor order, a before b
    d_elements: list  # coset representatives for c_names

    @property
    def c_rank(self):
        return len(self.c_names)

    @property
    def coset_words(self):  # per element of G/Q (lex bits), c_names indices
        return coset_words_of(self.c_rank)

    def q_coordinates(self, element):
        """Coordinates of an ambient element of Q, factor by factor.

        Raises NotInQ when some coordinate is not a square-subgroup member
        (odd translation, a flip, or an odd residue in an even cyclic
        factor)."""
        return tuple(f.q_coordinate(x)
                     for f, x in zip(self.spec.factors, element))

    def coset_bits(self, element):
        """Image of an element in G/Q, as exponent bits on the independent
        generators."""
        return tuple(bit for f, x in zip(self.spec.factors, element)
                     for bit in f.coset_bits(x))


def _action_entry(f, x):
    """How x, an element of factor f, acts on f's coordinate of Q: the
    coordinate of x·s·x^-1, s the square of f's q_letter, which generates
    that coordinate."""
    s = f.pow(f.generator(f.q_letter), 2)
    return f.q_coordinate(f.mul(f.mul(x, s), f.inv(x)))


def square_data(spec):
    """Extract Q, C = G/Q and the conjugation action from a validated spec.

    Q gets one coordinate per factor (the square of the factor's q_letter);
    odd cyclic factors are entirely inside Q and contribute a torsion
    relation but no quotient generator.  G is a direct product, so a
    quotient generator of factor j acts on coordinate j only: its action
    matrix is the identity but for entry (j, j), computed by factor j's own
    arithmetic, by conjugating its square.  An entry matters only modulo
    the coordinate's order, so a trivial coordinate (ZedMod(1), ZedMod(2))
    gets 1.  Conjugation fixes or inverts a factor's square, so every entry
    is +-1, every action is +-1-diagonal and the module is proven with O(n m) checks, no product and no relation
    membership test (`InvolutionModule._validate`).  The actions share the
    identity's rows but for row j; the module shares them too.
    """
    factors = spec.factors
    n = len(factors)
    ident = eye(n)
    relations = []
    c_names = []
    actions = []
    for j, f in enumerate(factors):
        for letter in f.quotient_letters:
            action = list(ident)
            if f.q_order != 1:
                action[j] = [0] * n
                action[j][j] = _action_entry(f, f.generator(letter))
            actions.append(action)
            c_names.append(f"{letter}{j + 1}")
        if f.q_order is not None:
            row = [0] * n
            row[j] = f.q_order
            relations.append(tuple(row))
    presentation = AbelianPresentation(n, relations)
    return SquareData(
        spec=spec,
        presentation=presentation,
        module=InvolutionModule(presentation, actions),
        c_names=c_names,
        d_elements=[spec.group.generator_element(name) for name in c_names],
    )


def image_of_a_squared(spec, data):
    """Coordinates of a^2 in the square-subgroup basis."""
    sq = spec.group.mul(spec.h_a, spec.h_a)
    return data.q_coordinates(sq)


# ---------------------------------------------------------------------------
# the G-side solution of a witness equation


def g_solution(eq, data, report):
    """An explicit ambient solution of the witness equation.

    Each x-variable gets its coset representative, and each character's y
    the identity; then for every character with a nonzero component the y
    gets, factor by factor, the factor's q_letter generator raised to the
    reported lift's coordinate, so its square is exactly that element of Q.
    """
    if report.simple:
        raise ValueError("no witness equation exists for a simple element")
    identity = data.spec.group.identity
    assignment = {}
    for j, d in enumerate(data.d_elements):
        assignment[x_var(j)] = d
    for ci in range(eq.c_size):
        assignment[y_var(ci)] = identity
    for ci, w in report.nonzero.items():
        assignment[y_var(ci)] = tuple(
            f.pow(f.generator(f.q_letter), c)
            for f, c in zip(data.spec.factors, w.lift))
    return assignment


def verify_solution_in_G(eq, assignment, spec):
    """Evaluate the equation's left-hand side in G and compare with its
    right-hand side, a power of a.

    A witness is evaluated from its recipe, level by level, with no word
    built; the towers raised to a zero exponent are not evaluated.  This is
    the reference evaluation, 2^c_rank products per live tower on integers
    that double at each level; `--verify` runs
    `verify_solution_closed_form`, which tests and demos compare with it.
    """
    group = spec.group
    return (eq.lhs_value(assignment, group.ops)
            == group.pow(spec.h_a, eq.rhs_exponent))


def verify_solution_closed_form(eq, assignment, spec):
    """The check of `verify_solution_in_G`, with the left-hand side's value
    read in closed form (`lhs_value_in_closed_form`): no product in G."""
    return (lhs_value_in_closed_form(eq, assignment, spec)
            == spec.group.pow(spec.h_a, eq.rhs_exponent))


def lhs_value_in_closed_form(eq, assignment, spec):
    """`eq.lhs_value(assignment, spec.group.ops)`, with no product in G and
    no walk of a tower's integers.

    Every tower body lies in Q, where c = x-product acts on coordinate j by
    a sign eps_j(c), so body·c·body^s·c^-1 has coordinate j equal to
    (1 + s·eps_j(c))·body_j: twice body_j when s = eps_j(c), else 0.  This
    reads every x and then the y of each of `eq.live_terms()`, in the order
    that `Equation.lhs_value` reads them.  It takes eps_j(x_i) from each
    factor's own arithmetic (`_action_entry`), n·m conjugations, skipping
    trivial coordinates, so coordinate j's own character, with signs
    eps_j(x_1) .. eps_j(x_m), has index masks[j] (`c_index`).  A y-block's
    coordinates are torsion_order × square_coordinate(y_j).  Nonzero
    coordinate j of term ci survives every level iff the towers of ci and
    of j's own character agree at each, that is, iff `_levels(ci ^
    masks[j], m)` has no level of sign -1.  The survivors, times the
    term's exponent, are summed per coordinate, 2^(2^c_rank) scales the
    sum once, and each factor builds its part of the element of Q with
    those coordinates.  A `WordEquation` is valued by its `lhs_value`, a
    walk of its DAG.
    """
    if not isinstance(eq, Equation):
        return eq.lhs_value(assignment, spec.group.ops)
    m, torsion = eq.c_rank, eq.torsion_order
    coords = [(j, f) for j, f in enumerate(spec.factors) if f.q_order != 1]
    totals = [0] * len(spec.factors)
    masks = None  # coordinate -> the index of its own character
    for ci, e in eq.live_terms():
        if masks is None:
            xs = [_read(assignment, x_var(i)) for i in range(m)]
            masks = {j: c_index(_action_entry(f, x[j]) == -1 for x in xs)
                     for j, f in coords}
        y = _read(assignment, y_var(ci))
        for j, f in coords:
            b = torsion * f.square_coordinate(y[j])
            if f.q_order:
                b %= f.q_order
            if b and all(s == 1 for _, s in _levels(ci ^ masks[j], m)):
                totals[j] += e * b
    # coordinate t is (q_letter^2)^t, and each tower doubled it 2^c_rank times
    scale = 2 << (1 << m)
    return tuple(f.pow(f.generator(f.q_letter), scale * t)
                 for f, t in zip(spec.factors, totals))


# ---------------------------------------------------------------------------
# retraction construction


def _power_pair(images, t, s):
    """a^t·b^s on the factors of images, one (pow, mul, a_j, b_j) each, as
    the list of its coordinates there."""
    # plain loops: a comprehension costs one more frame per call
    out = []
    if not s:
        for pow, _, x, _ in images:
            out.append(pow(x, t))
    else:
        for pow, mul, x, y in images:
            out.append(mul(pow(x, t), y))
    return out


@dataclass
class RetractionData:
    """A retraction G -> H assembled from an invariant complement.

    The functional reads off the coefficient of a^2 in the quotient of the
    square subgroup by its kernel, the complement; the sign character
    records how conjugation acts on that coefficient.  The complement's
    basis and the torsion invariants are derived on each read.

    rho is applied one factor at a time, with no product of whole n-tuples,
    and reads g on `reads` alone: the sorted indices of the factors where
    chi negates a quotient letter and of those where the functional is
    nonzero.  `image_on_reads` takes g's coordinates there, in that order,
    and reads chi's sign on them, then the functional, giving the exponent
    pair (t, s) of rho(g) = a^t·b^s.  `element` builds a^t·b^s factor by
    factor, and `element_on_reads` its coordinates on `reads` alone;
    `image`, `element` and `apply` take and give whole elements of G.
    """

    spec: GroupSpec
    data: SquareData
    sign_character: Character
    functional: tuple

    @property
    def complement_basis(self):
        """A basis of the invariant complement, the functional's kernel."""
        return kernel_basis([list(self.functional)],
                            cols=len(self.functional))

    @property
    def torsion_invariants(self):
        """The finite normal subgroup's invariants: c_rank - 2 twos.  Modulo
        the complement, the kernel-of-sign subgroup is Z^(1+r) over a^2 and
        `build_retraction`'s r = c_rank - 1 lifts g_i, modulo the rows
        [-t | 2I], t_i the functional on g_i^2.  As chi(a) = 1 and a^2
        reads 1, some t_i is odd, which leaves Z x (Z/2)^(r-1)."""
        return [2] * (self.data.c_rank - 2)

    def __post_init__(self):
        # bound once, per factor that rho reads, by its place in `reads`:
        # where chi negates a generator that the factor adds to G/Q (its
        # quotient letters), the places of those among its coset bits;
        # where the functional is nonzero, the coefficient, the factor's
        # arithmetic and its coordinate of b
        spec = self.spec
        signs = iter(self.sign_character.signs)
        signed = []
        for j, f in enumerate(spec.factors):
            negated = tuple([i for i, s in enumerate(
                islice(signs, len(f.quotient_letters))) if s == -1])
            if negated:
                signed.append((j, f.coset_bits, negated))
        squares = [(j, l, f.square_coordinate, f.mul, b) for j, (f, l, b)
                   in enumerate(zip(spec.factors, self.functional, spec.h_b))
                   if l]
        self.reads = tuple(sorted({j for j, *_ in signed + squares}))
        place = {j: r for r, j in enumerate(self.reads)}
        self._signed = tuple([(place[j], *rest) for j, *rest in signed])
        self._squares = tuple([(place[j], *rest) for j, *rest in squares])
        self._images = tuple([(f.pow, f.mul, x, y) for f, x, y
                              in zip(spec.factors, spec.h_a, spec.h_b)])
        self._read_images = tuple([self._images[j] for j in self.reads])

    def image_on_reads(self, values):
        """rho(g) as the exponent pair (t, s) of its normal form a^t·b^s,
        from g's coordinates on `reads`, in that order."""
        # chi's sign on g's coset: the parity of g's coset bits on the
        # generators that chi negates
        odd = 0
        for r, coset_bits, negated in self._signed:
            bits = coset_bits(values[r])
            for i in negated:
                odd ^= bits[i]
        t = 0
        if not odd:  # a^t with t the functional on g^2
            for r, l, square_coordinate, _, _ in self._squares:
                t += l * square_coordinate(values[r])
            return t, 0
        # a^t·b with t the functional on (g·b)^2, read on each g[j]·b[j]
        for r, l, square_coordinate, mul, b in self._squares:
            t += l * square_coordinate(mul(values[r], b))
        return t, 1

    def image(self, g):
        """rho(g) as the exponent pair (t, s) of its normal form a^t·b^s."""
        return self.image_on_reads([g[j] for j in self.reads])

    def element_on_reads(self, t, s):
        """The coordinates of a^t·b^s on `reads`, in that order."""
        return _power_pair(self._read_images, t, s)

    def element(self, t, s):
        """a^t·b^s in G, built factor by factor."""
        return tuple(_power_pair(self._images, t, s))

    def apply(self, g):
        return self.element(*self.image(g))


def build_retraction(spec, data, q_vec, chi):
    """Build the retraction determined by a simple a^2 with witness chi.

    Steps: take the integer functional whose kernel is the invariant
    complement M of <a^2> in Q; check, exactly, that the map fixes a and b;
    check that the kernel-of-sign subgroup is abelian modulo M (it must be:
    its commutator subgroup is finite and torsion-free).  The map is
    idempotent by construction; verify_retraction samples the rest, on the
    factors that the map reads.
    """
    lam = data.module._complement_data(q_vec, chi)
    rho = RetractionData(spec=spec, data=data, sign_character=chi,
                         functional=lam)
    # rho(a) = a iff chi(a) = 1 and the functional sends a^2 to 1, as a has
    # infinite order; rho(b) = b iff chi(b) = -1, as else rho(b) = 1
    image_a, image_b = rho.apply(spec.h_a), rho.apply(spec.h_b)
    if image_a != spec.h_a or image_b != spec.h_b:
        raise NormalizationFailure(
            f"retraction sends a to {image_a!r} and b to {image_b!r}, "
            "expected a and b")

    # lifts of the kernel of chi in G/Q: each generator but the first that
    # chi negates, times that one when chi negates it too.  Some generator
    # is negated: b inverts a^2, so a character with chi(b) = +1 gives a^2
    # a zero component, and _complement_data has raised NotSimple.  Each
    # d_element is a generator of one factor, so a lift is built on the
    # factors of its one or two generators, as {factor: its coordinate}
    # where that is nontrivial
    factors, d = spec.factors, data.d_elements
    home = [spec.group.generators[name] for name in data.c_names]
    pivot = chi.signs.index(-1)
    lifts = []
    for j, s in enumerate(chi.signs):
        if j == pivot:
            continue
        lift = {}
        for i in ((pivot, j) if s == -1 else (j,)):
            k = home[i]
            f = factors[k]
            lift[k] = f.mul(lift.get(k, f.identity), d[i][k])
        lifts.append({k: x for k, x in lift.items()
                      if x != factors[k].identity})
    # the index-two subgroup must be abelian modulo the complement.  A
    # commutator in the direct product G is trivial in every factor where
    # either lift is, so only the pairs of lifts that share a factor are
    # visited, found by indexing the lifts by factor, and the functional
    # reads each pair's commutator on the factors both touch
    touching = {}  # factor -> the lifts nontrivial there, in order
    for i, lift in enumerate(lifts):
        for k in lift:
            touching.setdefault(k, []).append(i)
    pairs = {pair for ids in touching.values()
             for pair in combinations(ids, 2)}
    for i, j in pairs:
        t = 0
        for k in lifts[i].keys() & lifts[j].keys():
            f, x, y = factors[k], lifts[i][k], lifts[j][k]
            comm = f.mul(f.mul(x, y), f.inv(f.mul(y, x)))
            t += lam[k] * f.q_coordinate(comm)
        if t != 0:
            raise AssertionError(
                "kernel subgroup is not abelian modulo the complement")
    return rho


def verify_retraction(rho, spec, samples=10000, bound=100, seed=0):
    """Sampled check that rho is an idempotent homomorphism fixing H.

    Checks rho(a) = a and rho(b) = b, then per sample pair g, h that
    rho(gh) = rho(g)rho(h) and rho(rho(g)) = rho(g), both compared in H's
    normal form, as the exponent pairs (t, s) of a^t·b^s that
    `RetractionData.image_on_reads` reads.  Each comparison has the truth
    value of the one in G, for any rho, because `validate_spec` has proved
    b^2 = 1 != b, a of infinite order and b·a·b^-1 = a^-1:

      <a> is torsion-free, so b is not in it and (t, s) -> a^t·b^s is
      injective;
      a^t1·b^s1 · a^t2·b^s2 = a^(t1 + (-1)^s1·t2) · b^(s1 xor s2).

    rho's image of x depends on x[j] for j in `rho.reads` alone, and G is
    a direct product, so (gh)[j] = g[j]·h[j] and (a^t·b^s)[j] =
    a_j^t·b_j^s.  Each sample therefore forms g, h, gh and rho(g) on those
    factors only, by each factor's own arithmetic, one factor product per
    factor read for gh, and every comparison has exactly the truth value
    that it has on whole elements of G, for true and tampered maps alike.

    Every factor is still drawn, in order, g's factors then h's.  Each
    coordinate that rho reads is drawn with `dihedral.below`, which
    consumes exactly the bits of the equivalent randint draw; a factor that
    rho does not read builds no element and consumes the same bits
    (`skip_below` over its `draw_moduli`).  So a seed gives the samples
    that randint would give, whichever factors rho reads.
    """
    import random

    rng = random.Random(seed)
    if rho.apply(spec.h_a) != spec.h_a or rho.apply(spec.h_b) != spec.h_b:
        return False
    # an element's draws: for each factor read, the moduli of the unread
    # factors before it and its own draw; then the unread factors after
    reads, factors = rho.reads, spec.factors
    read = set(reads)
    steps, skipped = [], []
    for j, f in enumerate(factors):
        if j in read:
            steps.append((tuple(skipped), f.random_element))
            skipped = []
        else:
            skipped.extend(f.draw_moduli(bound))

    def draw():
        values = []
        for moduli, random_element in steps:
            if moduli:
                skip_below(rng, moduli)
            values.append(random_element(rng, bound))
        if skipped:
            skip_below(rng, skipped)
        return values

    muls = [factors[j].mul for j in reads]
    image, element = rho.image_on_reads, rho.element_on_reads
    for _ in range(samples):
        g = draw()
        h = draw()
        tg, sg = image(g)
        th, sh = image(h)
        gh = []
        for mul, x, y in zip(muls, g, h):
            gh.append(mul(x, y))
        if image(gh) != (tg - th if sg else tg + th, sg ^ sh):
            return False
        if image(element(tg, sg)) != (tg, sg):
            return False
    return True


# ---------------------------------------------------------------------------
# the analyzer


@dataclass
class Verdict:
    """Outcome of the analysis: either a verified retraction or a witness
    equation with ambient solution and no-solution certificate."""

    kind: str  # "retract" or "not-verbally-closed"
    spec: GroupSpec
    data: SquareData
    report: object
    a_squared: tuple
    retraction: RetractionData = None
    equation: Equation = None
    solution: dict = None
    certificate: object = None

    @property
    def is_retract(self):
        return self.kind == "retract"


def analyze(spec, filler=0):
    """Run the full decision pipeline on a validated spec."""
    validate_spec(spec)
    data = square_data(spec)
    a_sq = image_of_a_squared(spec, data)
    report = data.module.is_simple(a_sq)
    if report.simple:
        retraction = build_retraction(spec, data, a_sq,
                                      report.witness_character)
        return Verdict(kind="retract", spec=spec, data=data, report=report,
                       a_squared=a_sq, retraction=retraction)
    eq = build_witness_equation(report, 1, data.presentation.torsion_order,
                                data.c_rank, filler=filler)
    solution = g_solution(eq, data, report)
    certificate = certify_no_solution(eq)
    return Verdict(kind="not-verbally-closed", spec=spec, data=data,
                   report=report, a_squared=a_sq, equation=eq,
                   solution=solution, certificate=certificate)
