"""Exact arithmetic in the infinite dihedral group and no-solution
certificates.

Elements are written canonically as a^k * b^e with k an arbitrary integer
and e a flip bit; b*a*b = a^-1.  The certificate machinery turns the
closed-form collapse of the commutator-tower words over this group into a
finite table of integer non-divisibility facts, one per flip pattern, which
together prove that a witness equation has no dihedral solution.
"""

import operator
from dataclasses import dataclass

from .involutions import Character, enumerate_group_elements
from .words import GroupOps, _repr, x_var


class InvalidEquation(ValueError):
    """A certificate is impossible: some effective exponent is +-1."""


class DihedralElement:
    """a^translation * b^flip in <b>_2 |x <a>_inf."""

    __slots__ = ("translation", "flip")

    def __init__(self, translation=0, flip=0):
        self.translation = translation
        self.flip = flip & 1

    def __mul__(self, other):
        if self.flip:
            return DihedralElement(self.translation - other.translation,
                                   self.flip ^ other.flip)
        return DihedralElement(self.translation + other.translation,
                               self.flip ^ other.flip)

    def inverse(self):
        if self.flip:
            return self
        return DihedralElement(-self.translation, 0)

    def __pow__(self, e):
        if self.flip:
            return DihedralElement(0, 0) if e % 2 == 0 else self
        return DihedralElement(self.translation * e, 0)

    def __eq__(self, other):
        return (isinstance(other, DihedralElement)
                and self.translation == other.translation
                and self.flip == other.flip)

    def __hash__(self):
        return hash((self.translation, self.flip))

    def is_identity(self):
        return self.flip == 0 and self.translation == 0

    def __repr__(self):
        if self.is_identity():
            return "1"
        parts = []
        if self.translation:
            parts.append(f"a^{self.translation}" if self.translation != 1 else "a")
        if self.flip:
            parts.append("b")
        return "*".join(parts)


IDENTITY = DihedralElement(0, 0)
A = DihedralElement(1, 0)
B = DihedralElement(0, 1)


def below(rng, n):
    """A uniform integer in [0, n), n >= 1, drawn as rng.randrange(n) draws
    it on CPython 3.10 to 3.13: getrandbits(n.bit_length()) until the value
    is below n.  The same bits give the same value and leave the same
    state, at less cost per call."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def draw_element(rng, bound, flip=None):
    """a^t * b^flip with t uniform in [-bound, bound] and, unless given, a
    uniform flip bit.  Each is one `below` draw, which consumes exactly the
    bits of rng.randint(-bound, bound) and rng.randint(0, 1), so the stream
    is theirs."""
    t = below(rng, 2 * bound + 1) - bound
    return DihedralElement(t, below(rng, 2) if flip is None else flip)


DIHEDRAL_OPS = GroupOps(
    mul=operator.mul,
    inv=DihedralElement.inverse,
    identity=IDENTITY,
)


def character_of_substitution(delta):
    """The character selected by substituting x_j = b^{delta_j} a^{k_j}:
    its value on the j-th generator is (-1)^{delta_j}."""
    return Character(tuple(-1 if d else 1 for d in delta))


@dataclass
class CertificateRow:
    """One flip pattern: all equation values land in <a^subgroup_exponent>,
    which misses the target a^target_exponent."""

    delta: tuple
    matched_character: Character
    effective_exponent: int  # k of the matched character, or the filler
    subgroup_exponent: int  # target_exponent * effective_exponent
    target_exponent: int
    obstruction: str  # "nonunit-multiplier" or "identity-vs-nontrivial"

    __repr__ = _repr


def _row(delta, k, rhs):
    """The certificate row of flip pattern delta, whose matched character's
    effective exponent is k, against the right-hand side a^rhs."""
    return CertificateRow(
        delta=delta,
        matched_character=character_of_substitution(delta),
        effective_exponent=k,
        subgroup_exponent=rhs * k,
        target_exponent=rhs,
        obstruction="identity-vs-nontrivial" if k == 0 else "nonunit-multiplier",
    )


def _row_text(k, target, subgroup):
    """A table row's values and obstruction text for effective exponent k."""
    if k == 0:
        return f"values in {{1}}  obstruction: identity != a^{target}"
    return (f"values in <a^{subgroup}>  obstruction: a^{target} not in "
            f"<a^{subgroup}> since {k}*l = 1 has no integer solution")


_BITS = frozenset((0, 1))


@dataclass
class NoSolutionCertificate:
    """One row per flip pattern whose matched character has nonzero content,
    plus a remainder: each of the other `remainder` patterns matches a
    character with content 0, whose effective exponent is the filler.
    Those rows differ only in delta, so one fact about the filler proves
    them all."""

    listed: list  # CertificateRow per nonzero character, in delta order
    c_rank: int
    rhs_exponent: int
    filler: int
    remainder: int  # the number of flip patterns not listed

    __repr__ = _repr

    @property
    def rows(self):
        """One CertificateRow per flip pattern, in enumeration order: the
        listed rows and the filler's, built on each read."""
        listed = {row.delta: row for row in self.listed}
        return [listed.get(delta) or _row(delta, self.filler, self.rhs_exponent)
                for delta in enumerate_group_elements(self.c_rank)]

    def is_valid(self):
        """Re-verify every integer obstruction independently of how the
        rows were produced: that the target is not 1, each listed row's
        obstruction, the filler's for the remainder, and that the listed
        patterns are distinct and the remainder counts the rest."""
        m = self.c_rank
        deltas = {row.delta for row in self.listed}
        # a^0 = 1 lies in every subgroup, so a target a^0 is always solved
        if (self.rhs_exponent == 0
                or len(deltas) != len(self.listed)
                or len(self.listed) + self.remainder != 1 << m
                or not all(len(d) == m and _BITS.issuperset(d)
                           for d in deltas)):
            return False
        # target = subgroup * l  <=>  k * l = 1: impossible for |k| != 1;
        # with k = 0 the values are 1, which misses the nonzero target
        if self.remainder and abs(self.filler) == 1:
            return False
        for row in self.listed:
            k = row.effective_exponent
            if row.target_exponent != self.rhs_exponent:
                return False
            if k == 0:
                if row.obstruction != "identity-vs-nontrivial":
                    return False
            elif abs(k) == 1 or row.subgroup_exponent != self.rhs_exponent * k:
                return False
        return True

    def to_table(self):
        lines = []
        for row in self.listed:
            d = "(" + ",".join(map(str, row.delta)) + ")"
            lines.append(f"delta={d}  {row.matched_character.label()}  "
                         + _row_text(row.effective_exponent,
                                        row.target_exponent,
                                        row.subgroup_exponent))
        if self.remainder:
            rhs = self.rhs_exponent
            lines.append(f"every other delta ({self.remainder})  "
                         + _row_text(self.filler, rhs, rhs * self.filler))
        return "\n".join(lines)


def certify_no_solution(eq):
    """Build the no-solution certificate for a witness equation.

    For each pattern of flip bits on the x-variables, exactly one character
    survives the closed-form collapse, so every dihedral value of the
    left-hand side lies in a proper subgroup <a^(target * k)> (or is the
    identity when k = 0); the right-hand side a^target escapes because
    |k| != 1.  The free translation parameters never need enumerating --
    this is a proof, not a search.  Flip pattern i matches character i of
    `enumerate_characters`: both lists are lexicographic (0 before 1, +1
    before -1) and chi_j = (-1)^{delta_j}.  So a row is listed for each
    entry of the equation's nonzero contents, and the filler covers the
    rest.
    """
    m, rhs = eq.c_rank, eq.rhs_exponent
    listed = []
    for i, k in sorted(eq.contents.items()):
        if abs(k) == 1:
            raise InvalidEquation(
                "effective exponent +-1: a simple component slipped through")
        delta = tuple((i >> j) & 1 for j in range(m - 1, -1, -1))
        listed.append(_row(delta, k, rhs))
    remainder = (1 << m) - len(listed)
    if remainder and abs(eq.filler) == 1:
        raise InvalidEquation("effective exponent +-1: the filler")
    return NoSolutionCertificate(listed=listed, c_rank=m, rhs_exponent=rhs,
                                 filler=eq.filler, remainder=remainder)


def spot_check_no_solution(eq, bound, trials, seed=0):
    """Randomised corroboration of a certificate by direct evaluation.

    Substitutes x_j = a^{k_j} b^{delta_j} (cycling through every delta
    pattern in enumeration order: trial i takes the bits of i mod 2^m,
    first generator highest, so no list of the 2^m patterns is built) and
    random dihedral values for the y-variables, and reports True when no
    substitution hits the right-hand side.  This is a heuristic, not a
    proof: absence of small solutions proves nothing for general equations.

    A witness is evaluated from its recipe with no word built, and the
    towers raised to a zero filler exponent are not evaluated.  Each other
    tower stops at its first identity level: one whose character misses the
    trial's flip pattern dies within a few levels, so a trial costs about
    O(|C|) group operations, one full tower when a live character matches
    the flips, rather than O(|C|) per live tower.  A y's value is drawn on
    its first read, so unread y's cost no draws; every live tower reads its
    y before its levels, so the draws do not depend on where towers stop.
    """
    import random

    rng = random.Random(seed)
    m = eq.c_rank
    rhs = DihedralElement(eq.rhs_exponent, 0)

    class Draws(dict):  # an assignment drawing each y on its first read
        def __missing__(self, name):
            value = self[name] = draw_element(rng, bound)
            return value

    mask = (1 << m) - 1
    for i in range(trials):
        pattern = i & mask
        assignment = Draws()
        for j in range(m):
            assignment[x_var(j)] = draw_element(
                rng, bound, (pattern >> (m - 1 - j)) & 1)
        if eq.lhs_value(assignment, DIHEDRAL_OPS) == rhs:
            return False
    return True
