"""Modules over finite elementary abelian 2-groups.

A rank-m elementary abelian 2-group C acts on a finitely generated abelian
group Q through one integer involution matrix per generator.  This module
computes sign characters of C, the rational eigenprojections of elements of
Q, the eigencomponent lattices, the simplicity test that drives the whole
retract-or-witness decision, and for a simple element the functional
whose kernel is an invariant complement of it.
C is numbered once, by `c_bits` and its inverse `c_index`: element or
character e has the m bits of e, the first generator's the highest, as its
exponents or as the places of its -1 signs.
Every eigenprojection is read from one table, `_eigensplit`, of the integer
numerators 2^m e_chi.  The decision stays in integers: it solves 2^m times
a component, an integer vector, in the eigenlattice scaled by 2^m, where its
coordinates are those of the component itself.  The public projections
divide by 2^m on read, and the public eigenlattices are built from the
scaled lattice's generators over 2^m.
"""

from dataclasses import dataclass
from itertools import combinations, product, repeat
from math import gcd
from operator import mul

from .lattice import (
    AbelianPresentation,
    Lattice,
    NotInLattice,
    _ratio,
    eye,
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
        """Position in `enumerate_characters` order: the `c_index` of the
        bits that are 1 where the sign is -1."""
        return c_index(s == -1 for s in self.signs)

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
    """All 2^m characters, lexicographic on sign vectors with +1 before -1:
    character i has sign -1 exactly at the 1-bits of `c_bits(i, m)`."""
    return [Character(signs) for signs in product((1, -1), repeat=m)]


def enumerate_group_elements(m):
    """All elements of C as generator bit tuples, lexicographic with 0 before
    1: element e is `c_bits(e, m)`."""
    return list(product((0, 1), repeat=m))


def c_bits(e, m):
    """Element or character e of C at c-rank m as its m bits, the first
    generator's first (and the highest bit of e)."""
    return tuple(e >> (m - 1 - j) & 1 for j in range(m))


def c_index(bits):
    """The inverse of `c_bits`: the number whose bits, first highest, are bits."""
    i = 0
    for b in bits:
        i = i << 1 | b
    return i


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
        """Copy each action's list of rows, prove the module laws unless
        check is false, and build the induced actions on the free quotient,
        where the involutions commute exactly and all projection algebra
        happens.  The rows themselves are shared with the caller, not
        copied: nothing here writes a row in place.

        The free action of A is proj A lift = I + proj (A - I) lift, as
        proj lift = I exactly: it is read off the rows of A that differ
        from the identity's, each adding one column of proj times its row
        of (A - I) lift.  A spec-built action differs from I in at most one
        row, so its free action costs that row's nonzero entries and no
        product.  The free actions (`_free`) and the `_eigensplit` entries
        are kept as sparse rows (`_identity`).
        """
        self.group = group
        self.actions = [list(A) for A in actions]
        self.c_rank = len(actions)
        if check:
            self._validate()
        identity = _identity(group.free_rank)
        self._free = [_free_action(group, A, identity) for A in self.actions]
        self._split = _eigensplit(self._free, group.free_rank)
        self._lattices = {}  # signs -> eigenlattice scaled by 2^m

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Check the module laws modulo the relations of Q.

        Each action's diagonal is read once (`_sign_diagonal`).  An action
        that is diagonal with entries +-1 squares to I exactly, two such
        actions commute exactly, and one that is constant on a relation's
        support maps it to +-itself: these laws need no product and no
        membership test, so a module built that way, as every
        `square_data` module is, is proven with O(n m) checks.
        Every other action, pair or (action, relation) pair takes the
        general path.  Exact equality first: when A^2 == I, or AB == BA, as
        integer matrices, the law holds for that matrix or pair.  Only on a
        mismatch is each nonzero column of the difference tested for
        membership in the relation lattice.  A zero difference always lies
        in that lattice, so the check is exactly as strong as testing every
        column.
        """
        g = self.group
        n = g.rank
        supports = [[i for i, x in enumerate(rel) if x] for rel in g.relations]
        diagonals = []
        for idx, A in enumerate(self.actions):
            if len(A) != n or any(len(row) != n for row in A):
                raise ValueError(f"action {idx} is not {n}x{n}")
            d = _sign_diagonal(A)
            diagonals.append(d)
            for rel, support in zip(g.relations, supports):
                if d is not None and len({d[i] for i in support}) <= 1:
                    continue
                if not g.in_relation_lattice(mat_vec(A, rel)):
                    raise ValueError(f"action {idx} does not preserve the relations")
            if d is None and not _equal_on(g, mat_mul(A, A), eye(n)):
                raise ValueError(f"action {idx} is not an involution on Q")
        for i, j in combinations(range(self.c_rank), 2):
            if diagonals[i] is not None and diagonals[j] is not None:
                continue
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
        return _dense(self._element_rows(bits), self.group.free_rank)

    def _element_rows(self, bits):
        """`element_matrix` as sparse rows (`_identity`)."""
        M = _identity(self.group.free_rank)
        for F, b in zip(self._free, bits):
            if b:
                M = {i: _row_times(row, F) for i, row in M.items()}
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
        unscaled lattice, which `eigenlattice_free` builds from these
        generators over 2^m."""
        if signs not in self._lattices:
            f = self.group.free_rank
            M = _dense(self._split.get(signs, {}), f)
            gens = (list(zip(*mat_mul(M, self.group._proj))) if f
                    else [()] * self.group.rank)
            self._lattices[signs] = Lattice.from_generators(gens)
        return self._lattices[signs]

    def eigenlattice_free(self, chi):
        """The lattice of chi-components of Q in free coordinates, generated
        by the components of the unit vectors: `_lattice`'s generators over
        2^m, with the same U and V, so the same coordinates."""
        return Lattice.from_generators(
            [tuple(_ratio(x, self.c_size) for x in g)
             for g in self._lattice(chi.signs).generators])

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
            w = _apply(M, fq)
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
        """The integer functional lam on ambient coordinates, lam(q) = 1,
        whose kernel M is an invariant complement: Q = <q> + M, direct.

        Construction: extend the chi-component of q to a basis of the
        eigenlattice; lam reads off the coefficient of that basis vector.
        It is read in the lattice scaled by 2^m, from the numerator of the
        component, with one solve and one one-row Smith form.  Raises
        NotSimple unless the component is primitive.
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
        U, _, V = smith_normal_form([list(coords)])
        mu = [U[0][0] * row[0] for row in V]
        # entry i is mu on the basis coordinates of the component of the
        # i-th unit vector, the lattice's i-th generator
        lam = mat_vec(L.generator_coordinates(), mu)
        self._check_complement(q, lam, chi)
        return lam

    def _check_complement(self, q, lam, chi):
        """Three exact identities: lam(q) = 1 gives Z^n = Zq + ker lam;
        lam kills the relations, so it is a functional on Q; lam A_j =
        chi_j lam, so ker lam is invariant."""
        # each holds for every valid module: lam_i is mu on the chi-component
        # of e_i, A_j scales it by chi_j, and relations have no free part
        if sum(map(mul, lam, q)) != 1:
            raise AssertionError("functional does not send q to 1")
        if any(sum(map(mul, lam, r)) for r in self.group.relations):
            raise AssertionError("functional does not kill the relations")
        for A, s in zip(self.actions, chi.signs):
            if mat_mul([lam], A)[0] != [s * x for x in lam]:
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
            w = _apply(M, fq)
            for F, s in zip(self._free, signs):
                if _apply(F, w) != tuple(s * x for x in w):
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
    split = _eigensplit([target_module._element_rows(bits) for bits in phi],
                        group.free_rank)
    return group.lift_free(_component(split, chi.signs,
                                      group.free_coordinates(q)))


def _sign_diagonal(A):
    """A's diagonal when A is diagonal with entries +-1, else None.  With
    every diagonal entry a sign, each row has at most n - 1 zeros, so n(n - 1)
    zeros in all put each row's one nonzero entry on the diagonal."""
    n = len(A)
    d = tuple(map(list.__getitem__, A, range(n)))
    if _SIGNS.issuperset(d) and sum(map(list.count, A, repeat(0))) == n * (n - 1):
        return d
    return None


def _equal_on(group, X, Y):
    """Whether the integer matrices X and Y induce the same map of Q: equal
    exactly, or every nonzero column of X - Y in the relation lattice."""
    if X == Y:
        return True
    return all(group.in_relation_lattice(d)
               for d in map(vec_sub, zip(*X), zip(*Y)) if any(d))


def _eigensplit(actions, f):
    """The table {signs: prod_j (I + s_j A_j) = 2^m e_chi} of f x f integer
    matrices for commuting involutions A_1..A_m, for exactly the characters
    with a nonzero eigenspace, in `enumerate_characters` order.  Matrices
    in and out are sparse rows (`_identity`).

    Level j maps each entry M of level j - 1 to M (I + A_j) and M (I - A_j)
    and drops the zero ones.  M is a polynomial in A_1..A_{j-1}, which
    commute exactly with A_j, so M (I +- A_j) = (I +- A_j) M.  A child's
    row is row +- row A_j, formed over row's nonzero entries; a zero row
    of M stays zero, so a level only ever touches its parents' nonzero
    rows, and no level is ever dense.  A nonzero entry is 2^j times the
    projector onto a joint eigenspace of A_1..A_j, so a level has at most
    f entries.  For diagonal actions every entry is diagonal and each row
    lies in one entry, so a level touches f rows, each at the cost of one
    entry.
    """
    level = {(): _identity(f)} if f else {}
    for A in actions:
        split = {}
        for signs, M in level.items():
            plus, minus = {}, {}
            for i, row in M.items():
                moved = _row_times(row, A)
                p, q = _combine(row, moved, 1), _combine(row, moved, -1)
                if p:
                    plus[i] = p
                if q:
                    minus[i] = q
            for s, child in ((1, plus), (-1, minus)):
                if child:
                    split[signs + (s,)] = child
        level = split
    return level


def _identity(f):
    """The f x f identity as sparse rows: a dict from the index of each
    nonzero row to that row as a dict from column to nonzero entry."""
    return {i: {i: 1} for i in range(f)}


def _sparse_row(v):
    """The nonzero entries of a vector, as a dict from their positions."""
    return {j: x for j, x in enumerate(v) if x}


def _dense(S, f):
    """The f x f list-of-lists matrix with the sparse rows S."""
    out = [[0] * f for _ in range(f)]
    for i, row in S.items():
        for j, x in row.items():
            out[i][j] = x
    return out


def _row_times(row, S):
    """The sparse row vector row S, over the nonzero entries of row."""
    out = {}
    for k, x in row.items():
        for j, y in S.get(k, {}).items():
            out[j] = out.get(j, 0) + x * y
    return {j: x for j, x in out.items() if x}


def _combine(row, other, s):
    """The sparse row row + s other, for s nonzero and other with no zero
    entry."""
    out = dict(row)
    for j, y in other.items():
        x = out.get(j, 0) + s * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def _apply(S, v):
    """S v for the sparse rows S of a square matrix of v's size."""
    return tuple(sum(x * v[j] for j, x in S[i].items()) if i in S else 0
                 for i in range(len(v)))


def _free_action(group, A, identity):
    """The action of the ambient matrix A on the free quotient as sparse
    rows: I + proj (A - I) lift, summed over the rows k of A that differ
    from the identity's, row k adding column k of proj times the row
    (A - I)_k lift.  Every other row is the row of `identity`, the sparse
    f x f identity, shared: sparse rows are never written in place."""
    n = group.rank
    F = dict(identity)
    for k, row in enumerate(A):
        if row[k] == 1 and row.count(0) == n - 1:
            continue
        d = list(row)
        d[k] -= 1
        moved = {}  # (A - I)_k lift
        for l, x in _sparse_row(d).items():
            moved = _combine(moved, _sparse_row(group._lift[l]), x)
        if not moved:
            continue
        for i, p in enumerate(group._proj):
            if p[k]:
                F[i] = _combine(F[i], moved, p[k])
    return {i: row for i, row in F.items() if row}


def _numerator(split, signs, fq):
    """2^m times the eigencomponent of a free-coordinate vector at the
    character with these signs: its `_eigensplit` entry applied (zero when
    the character is absent)."""
    return _apply(split.get(signs, {}), fq)


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
