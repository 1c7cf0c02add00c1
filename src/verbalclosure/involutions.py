"""Modules over finite elementary abelian 2-groups.

A rank-m elementary abelian 2-group C acts on a finitely generated abelian
group Q through one integer involution matrix per generator.  This module
computes sign characters of C, the rational eigenprojections of elements of
Q, the eigencomponent lattices, the simplicity test that drives the whole
retract-or-witness decision, and invariant complements for simple elements.
Every eigenprojection is read from one table, `_eigensplit`, of the integer
numerators 2^m e_chi.  The decision stays in integers: it solves 2^m times
a component, an integer vector, in the eigenlattice scaled by 2^m, where its
coordinates are those of the component itself.  The public projections and
eigenlattices divide by 2^m on read.
"""

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import mul

from .lattice import (
    AbelianPresentation,
    Lattice,
    NotInLattice,
    _ratio,
    eye,
    kernel_basis,
    mat_mul,
    mat_vec,
    membership_solve,
    smith_normal_form,
    snf_diagonal,
    vec_sub,
)


class NotSimple(ValueError):
    """Complement construction requires a simple element with the given witness."""


class NotEpimorphism(ValueError):
    """The generator images do not generate the target 2-group."""


# the values a character may take; as a set, one C-level superset test
# checks all of a character's signs
_SIGNS = frozenset((1, -1))


@dataclass(frozen=True)
class Character:
    """A homomorphism from C to {+1, -1}, given by its values on generators."""

    signs: tuple

    def __post_init__(self):
        if not _SIGNS.issuperset(self.signs):
            raise ValueError("character signs must be +1 or -1")

    @property
    def rank(self):
        return len(self.signs)

    @property
    def index(self):
        """Position in `enumerate_characters` order: the signs read as
        binary digits, -1 as 1, the first generator's the highest."""
        return sum(1 << j for j, s in enumerate(reversed(self.signs))
                   if s == -1)

    def on_element(self, bits):
        """Value on the element of C given by a generator-exponent bit tuple."""
        value = 1
        for s, b in zip(self.signs, bits):
            if b:
                value *= s
        return value

    def label(self):
        return "chi(" + "".join("+" if s == 1 else "-" for s in self.signs) + ")"


def enumerate_characters(m):
    """All 2^m characters, lexicographic on sign vectors with +1 before -1."""
    return [Character(signs) for signs in product((1, -1), repeat=m)]


def enumerate_group_elements(m):
    """All elements of C as generator bit tuples, lexicographic with 0 before 1."""
    return list(product((0, 1), repeat=m))


@dataclass
class ComponentWitness:
    """Non-simplicity data for one character: component = content * direction,
    and an ambient lift of the direction back into Q."""

    character: Character
    content: int
    lift: tuple  # integer vector in Q, zero for a vanishing component


@dataclass
class SimplicityReport:
    """The outcome of `InvolutionModule.is_simple`.

    A non-simple report keeps only the nonzero components, keyed by
    character index in `enumerate_characters` order; every other
    character's component vanishes, with content 0 and a zero lift of
    length `rank`.
    """

    simple: bool
    witness_character: Character = None
    nonzero: dict = None  # index -> ComponentWitness, non-simple only
    c_rank: int = 0
    rank: int = 0  # the ambient rank of Q, the length of a lift

    @property
    def components(self):
        """One ComponentWitness per character of C, in enumeration order,
        built on each read (None for a simple report)."""
        if self.simple:
            return None
        vanishing = (0,) * self.rank
        return [self.nonzero.get(i) or ComponentWitness(chi, 0, vanishing)
                for i, chi in enumerate(enumerate_characters(self.c_rank))]


class InvolutionModule:
    """A finitely generated abelian group together with commuting involutions.

    `group` presents Q over ambient generators; `actions` holds one integer
    matrix per generator of C, acting on ambient coordinate columns.  The
    matrices must square to the identity, commute pairwise, and preserve the
    relation lattice -- all modulo the relations of Q.
    """

    def __init__(self, group: AbelianPresentation, actions, check=True):
        self.group = group
        self.actions = [[list(row) for row in A] for A in actions]
        self.c_rank = len(actions)
        if check:
            self._validate()
        # induced action on the free quotient, where the involutions commute
        # exactly and all projection algebra happens
        f = group.free_rank
        n = group.rank
        proj = group._proj
        lift = group._lift
        self.free_actions = []
        for A in self.actions:
            AG = mat_mul(A, lift) if n else []
            self.free_actions.append(mat_mul(proj, AG) if f else [])
        self._split = _eigensplit(self.free_actions, f)
        self._lattices = {}  # signs -> eigenlattice scaled by 2^m

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Check the module laws modulo the relations of Q.

        Exact equality first: when A^2 == I, or AB == BA, as integer
        matrices, the law holds for that matrix or pair.  Only on a mismatch
        is each nonzero column of the difference tested for membership in
        the relation lattice.  A zero difference always lies in that lattice,
        so the check is exactly as strong as testing every column.
        """
        g = self.group
        n = g.rank
        ident = eye(n)
        for idx, A in enumerate(self.actions):
            if len(A) != n or any(len(row) != n for row in A):
                raise ValueError(f"action {idx} is not {n}x{n}")
            for rel in g.relations:
                img = mat_vec(A, rel)
                if not g.in_relation_lattice(img):
                    raise ValueError(f"action {idx} does not preserve the relations")
            if not _equal_on(g, mat_mul(A, A), ident):
                raise ValueError(f"action {idx} is not an involution on Q")
        for i in range(self.c_rank):
            for j in range(i + 1, self.c_rank):
                A, B = self.actions[i], self.actions[j]
                if not _equal_on(g, mat_mul(A, B), mat_mul(B, A)):
                    raise ValueError(f"actions {i} and {j} do not commute on Q")

    # -- basic operator algebra --------------------------------------------

    @property
    def c_size(self):
        return 1 << self.c_rank

    @property
    def characters(self):  # derived from c_rank on every read, never stored
        return enumerate_characters(self.c_rank)

    @property
    def elements(self):  # derived from c_rank on every read, never stored
        return enumerate_group_elements(self.c_rank)

    def element_matrix(self, bits):
        """Induced free-coordinate matrix of the element of C given by bits."""
        M = eye(self.group.free_rank)
        for A, b in zip(self.free_actions, bits):
            if b:
                M = mat_mul(M, A)
        return M

    def project_free(self, q, chi):
        """Eigencomponent of an ambient integer vector, in free coordinates."""
        return _component(self._split, chi.signs, self.group.free_coordinates(q))

    def project(self, q, chi):
        """The chi-component of q as a rational vector in ambient coordinates."""
        return self.group.lift_free(self.project_free(q, chi))

    # -- lattices -----------------------------------------------------------

    def _lattice(self, signs):
        """The lattice of chi-components of Q scaled by 2^m, in free
        coordinates: spanned by the integer columns of chi's `_eigensplit`
        entry M applied to the free projection, which are 2^m times the
        components of the unit vectors.  Scaling keeps the Smith form's U
        and V, so coordinates and membership coefficients are those of the
        unscaled lattice."""
        if signs not in self._lattices:
            M = self._split.get(signs)
            gens = (list(zip(*mat_mul(M, self.group._proj))) if M is not None
                    else [(0,) * self.group.free_rank] * self.group.rank)
            self._lattices[signs] = Lattice.from_generators(gens)
        return self._lattices[signs]

    def eigenlattice_free(self, chi):
        """The lattice of chi-components of Q in free coordinates, generated
        by the components of the unit vectors: `_lattice` divided by 2^m."""
        return self._lattice(chi.signs).divided(self.c_size)

    def eigenlattice(self, chi):
        """Z-basis of the lattice of chi-components of Q, ambient coordinates."""
        L = self.eigenlattice_free(chi)
        return Lattice([self.group.lift_free(v) for v in L.basis])

    # -- simplicity ---------------------------------------------------------

    def is_simple(self, q):
        """Decide whether some chi-component of q is primitive in its lattice.

        Returns at the first primitive component in enumeration order; for
        non-simple q, each character with a nonzero component gets its
        content k and a lift into Q of the primitive direction.  Only the
        characters in `_eigensplit` are visited, each nonzero component with
        one integer solve of its numerator M fq in the scaled lattice: that
        lattice is generated by the numerators of the unit vectors'
        components, so its membership solve x = s U[:r] lifts the component
        into Q, and gcd(x) = gcd(s) = k as U is unimodular.
        """
        fq = self.group.free_coordinates(q)
        nonzero = {}
        for signs, M in self._split.items():
            w = mat_vec(M, fq)
            if not any(w):
                continue
            chi = Character(signs)
            x = membership_solve(self._lattice(signs), w)
            if x is None:
                raise NotInLattice(f"{w} is not in the lattice")
            k = gcd(*x)
            if k == 1:
                return SimplicityReport(simple=True, witness_character=chi)
            nonzero[chi.index] = ComponentWitness(
                chi, k, tuple(c // k for c in x))
        return SimplicityReport(simple=False, nonzero=nonzero,
                                c_rank=self.c_rank, rank=self.group.rank)

    # -- complements --------------------------------------------------------

    def _complement_data(self, q, chi):
        """Invariant complement M with Q = <q> + M (direct), plus the integer
        functional on ambient coordinates whose kernel is M.

        Construction: extend the chi-component of q to a basis of the
        eigenlattice; the functional reads off the coefficient of that basis
        vector.  Both are read in the lattice scaled by 2^m, from the
        numerator of the component, with one solve.  Raises NotSimple unless
        the component is primitive.
        """
        w = _numerator(self._split, chi.signs, self.group.free_coordinates(q))
        L = self._lattice(chi.signs)
        coords = L.integer_coordinates(w) if any(w) else None
        if coords is None or len(coords) == 0:
            raise NotSimple("element has no primitive component at this character")
        if gcd(*coords) != 1:
            raise NotSimple("component is not primitive at this character")
        # the one-row Smith form U [coords] V = [1, 0, ...] gives the Bezout
        # vector mu = U[0][0] * (column 0 of V) with mu . coords = 1
        U, D, V = smith_normal_form([list(coords)])
        assert snf_diagonal(D) == [1]
        mu = [U[0][0] * row[0] for row in V]
        assert sum(c * x for c, x in zip(coords, mu)) == 1
        # entry i is mu on the basis coordinates of the component of the
        # i-th unit vector, the lattice's i-th generator
        lam = mat_vec(L.generator_coordinates(), mu)
        basis = kernel_basis([list(lam)], cols=self.group.rank)
        self._check_complement(q, lam, basis)
        return basis, lam

    def _check_complement(self, q, lam, basis):
        g = self.group
        n = g.rank
        assert sum(l * x for l, x in zip(lam, q)) == 1
        stacked = [list(q)] + [list(b) for b in basis] + [list(r) for r in g.relations]
        _, D, _ = smith_normal_form(stacked)
        diag = snf_diagonal(D)
        if not (len([d for d in diag if d == 1]) == n and all(d in (0, 1) for d in diag)):
            raise AssertionError("complement does not span Q together with q")
        # lam (A b) = (lam A) b: one row product per action
        for A in self.actions:
            lam_a = mat_mul([lam], A)[0]
            if any(sum(map(mul, lam_a, b)) for b in basis):
                raise AssertionError("complement is not invariant")

    # -- identities ---------------------------------------------------------

    def verify_component_identity(self, q):
        """Self-check on the `_eigensplit` entries M = 2^m e_chi (absent
        characters add zero): the M q sum to 2^m q (modulo torsion), and
        each w = M q lies in its character's eigenspace, A_j w = chi_j w for
        every generator j.  Holds for every valid module; used as an oracle.
        The sum holds for any matrices; the eigenvector law tests them."""
        fq = self.group.free_coordinates(q)
        total = [0] * len(fq)
        for signs, M in self._split.items():
            w = mat_vec(M, fq)
            for A, s in zip(self.free_actions, signs):
                if mat_vec(A, w) != tuple(s * x for x in w):
                    return False
            total = [a + b for a, b in zip(total, w)]
        return total == [x << self.c_rank for x in fq]


def project(module, q, chi):
    return module.project(q, chi)


def project_via_epimorphism(target_module, phi, q, chi):
    """Projection of q through a surjection of 2-groups.

    `phi` gives, for each generator of the source group C, the image element
    of the target group as a bit tuple.  The result equals the component of q
    at the unique factoring character when chi factors through phi, and is
    zero otherwise.  Raises NotEpimorphism when the images fail to generate
    the target group.  The component is read from the `_eigensplit` of the
    m generator images: its entry at chi (zero when chi is absent) over 2^m.
    """
    if len(phi) != chi.rank:
        raise ValueError("phi must assign an image to every source generator")
    if _gf2_rank([list(bits) for bits in phi]) != target_module.c_rank:
        raise NotEpimorphism("generator images do not span the target group")
    group = target_module.group
    split = _eigensplit([target_module.element_matrix(bits) for bits in phi],
                        group.free_rank)
    return group.lift_free(_component(split, chi.signs,
                                      group.free_coordinates(q)))


def _equal_on(group, X, Y):
    """Whether the integer matrices X and Y induce the same map of Q: equal
    exactly, or every nonzero column of X - Y in the relation lattice."""
    if X == Y:
        return True
    return all(group.in_relation_lattice(d)
               for d in map(vec_sub, zip(*X), zip(*Y)) if any(d))


def _eigensplit(matrices, f):
    """The table {signs: prod_j (I + s_j A_j) = 2^m e_chi} of f x f integer
    matrices for commuting involutions A_1..A_m, for exactly the characters
    with a nonzero eigenspace, in `enumerate_characters` order.

    Level j maps each matrix M of level j - 1 to (I + A_j) M and (I - A_j) M
    and drops the zero ones.  A nonzero entry is 2^j times the projector onto
    a joint eigenspace of A_1..A_j, so a level has at most f entries and the
    table costs at most f * m matrix products.
    """
    level = {(): eye(f)} if f else {}
    for A in matrices:
        split = {}
        for signs, M in level.items():
            AM = mat_mul(A, M)
            for s in (1, -1):
                child = [[x + s * y for x, y in zip(row, arow)]
                         for row, arow in zip(M, AM)]
                if any(map(any, child)):
                    split[signs + (s,)] = child
        level = split
    return level


def _numerator(split, signs, fq):
    """2^m times the eigencomponent of a free-coordinate vector at the
    character with these signs: its `_eigensplit` entry applied (zero when
    the character is absent)."""
    M = split.get(signs)
    return mat_vec(M, fq) if M is not None else (0,) * len(fq)


def _component(split, signs, fq):
    """The eigencomponent of a free-coordinate vector at the character with
    these signs, from an `_eigensplit` table: its numerator over 2^m."""
    return tuple(_ratio(x, 1 << len(signs))
                 for x in _numerator(split, signs, fq))


def factor_through(chi, phi, m_hat):
    """The character of the target group with chi = chi_hat o phi, or None."""
    for chi_hat in enumerate_characters(m_hat):
        if all(s == chi_hat.on_element(bits) for s, bits in zip(chi.signs, phi)):
            return chi_hat
    return None


def _gf2_rank(rows):
    """Rank over GF(2) of a 0/1 matrix: the number of odd invariant factors
    of its Smith form, because unimodular U and V stay invertible mod 2."""
    return sum(d % 2 for d in snf_diagonal(smith_normal_form(rows)[1]))
