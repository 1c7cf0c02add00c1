"""Shared test helpers: random module generators, a semidirect product
group for evaluating words against direct module arithmetic, a DAG node
counter, the letter-by-letter flattening of a small word, a call counter,
the canonical coset words, the closed-form value of a tower over the
infinite dihedral group, the witness steps of `analyze`, reference
builders of a witness's full component and certificate tables, and the
randint draw of a factor's random element."""

from math import gcd

from verbalclosure.ambient import (
    DInf,
    Zed,
    ZedMod,
    image_of_a_squared,
    square_data,
)
from verbalclosure.dihedral import (
    IDENTITY,
    CertificateRow,
    DihedralElement,
    character_of_substitution,
)
from verbalclosure.involutions import (
    Character,
    ComponentWitness,
    InvolutionModule,
    _component,
    enumerate_group_elements,
)
from verbalclosure.lattice import (
    AbelianPresentation,
    eye,
    mat_inv,
    mat_mul,
    mat_vec,
    membership_solve,
)
from verbalclosure.words import Concat, Gen, Inv, Pow, build_witness_equation


def random_unimodular(rng, n, steps=8):
    """A random determinant +-1 integer matrix built from row operations."""
    U = eye(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        elif kind == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-a for a in U[i]]
    return U


def _conjugated_actions(rng, free_rank, torsion, m, allow_swap):
    """Commuting involutions: a common unimodular conjugate of a commuting
    family of signed (block-)permutation matrices on the free part, plus
    +-1 on each torsion coordinate."""
    n = free_rank + len(torsion)
    U = random_unimodular(rng, free_rank) if free_rank else []
    Uinv = mat_inv(U) if free_rank else []
    # choose a swap pair shared by all actions so the family commutes
    pair = None
    if allow_swap and free_rank >= 2 and rng.random() < 0.7:
        pair = (0, 1)
    actions = []
    for _ in range(m):
        S = [[0] * free_rank for _ in range(free_rank)]
        for i in range(free_rank):
            S[i][i] = rng.choice((1, -1))
        if pair is not None:
            i, j = pair
            s = rng.choice((1, -1))
            if rng.random() < 0.5:
                S[i][i] = S[j][j] = 0
                S[i][j] = S[j][i] = s
            else:
                # scalar on the pair, so it commutes with the swap
                S[i][i] = S[j][j] = s
        core = mat_mul(mat_mul(Uinv, S), U) if free_rank else []
        A = [[0] * n for _ in range(n)]
        for i in range(free_rank):
            for j in range(free_rank):
                A[i][j] = core[i][j]
        for t in range(len(torsion)):
            A[free_rank + t][free_rank + t] = rng.choice((1, -1))
        actions.append(A)
    return actions


def random_module(rng, m=None, free_rank=None, torsion=None, allow_swap=True):
    """A random valid InvolutionModule with m <= 2, rank <= 3 by default."""
    if m is None:
        m = rng.randint(1, 2)
    if free_rank is None:
        free_rank = rng.randint(1, 3)
    if torsion is None:
        torsion = [k for k in [rng.choice((1, 2, 3, 4))] if k > 1]
    n = free_rank + len(torsion)
    relations = []
    for t, k in enumerate(torsion):
        row = [0] * n
        row[free_rank + t] = k
        relations.append(row)
    pres = AbelianPresentation(n, relations)
    actions = _conjugated_actions(rng, free_rank, torsion, m, allow_swap)
    return InvolutionModule(pres, actions)


def random_decomposable_module(rng, m, free_rank, torsion=()):
    """Conjugated sign-diagonal actions: always decomposable."""
    n = free_rank + len(torsion)
    relations = []
    for t, k in enumerate(torsion):
        row = [0] * n
        row[free_rank + t] = k
        relations.append(row)
    pres = AbelianPresentation(n, relations)
    actions = _conjugated_actions(rng, free_rank, list(torsion), m,
                                  allow_swap=False)
    return InvolutionModule(pres, actions)


class SemidirectGroup:
    """The group Q x| C realised from an InvolutionModule: elements are
    (canonical Q-vector, bit tuple), with the bits acting through the
    module's matrices.  Used to evaluate word identities by honest group
    arithmetic."""

    def __init__(self, module):
        self.module = module
        self.pres = module.group
        self.m = module.c_rank

    @property
    def identity(self):
        return (tuple(self.pres.canonical([0] * self.pres.rank)),
                (0,) * self.m)

    def act(self, bits, qvec):
        v = list(qvec)
        for j, b in enumerate(bits):
            if b:
                v = list(mat_vec(self.module.actions[j], v))
        return self.pres.canonical(v)

    def q_element(self, qvec):
        return (tuple(self.pres.canonical(qvec)), (0,) * self.m)

    def c_element(self, bits):
        return (tuple(self.pres.canonical([0] * self.pres.rank)), tuple(bits))

    def mul(self, x, y):
        q1, b1 = x
        q2, b2 = y
        moved = self.act(b1, q2)
        q = self.pres.canonical([a + b for a, b in zip(q1, moved)])
        return (tuple(q), tuple(a ^ b for a, b in zip(b1, b2)))

    def inv(self, x):
        q, b = x
        moved = self.act(b, [-a for a in q])
        return (tuple(self.pres.canonical(moved)), b)

    @property
    def ops(self):
        from verbalclosure.words import GroupOps

        return GroupOps(mul=self.mul, inv=self.inv, identity=self.identity)


def dag_nodes(root):
    """Number of distinct nodes reachable from a word DAG's root."""
    seen = {id(root)}
    stack = [root]
    while stack:
        w = stack.pop()
        if isinstance(w, Concat):
            children = w.parts
        elif isinstance(w, Pow):
            children = (w.base,)
        elif isinstance(w, Inv):
            children = (w.child,)
        else:
            children = ()
        for c in children:
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return len(seen)


def flatten(word):
    """Letter sequence [(name, +-1), ...] of a small word, unreduced: the
    letter-by-letter oracle, recursive and exponential in the DAG depth."""
    out = []

    def go(w, sign):
        if isinstance(w, Gen):
            out.append((w.name, sign))
        elif isinstance(w, Inv):
            go(w.child, -sign)
        elif isinstance(w, Concat):
            for p in (w.parts if sign == 1 else reversed(w.parts)):
                go(p, sign)
        elif isinstance(w, Pow):
            e = w.exp * sign
            for _ in range(abs(e)):
                go(w.base, 1 if e > 0 else -1)
        else:
            raise TypeError(f"not a word node: {w!r}")

    go(word, 1)
    return out


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the rest of the test; returns the list that each
    call appends its positional arguments to.  A method patched on its
    class records self first."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def witness_equation(spec, filler=0):
    """The witness steps of `analyze`: (square data, simplicity report,
    equation)."""
    data = square_data(spec)
    report = data.module.is_simple(image_of_a_squared(spec, data))
    eq = build_witness_equation(report, 1, data.presentation.torsion_order,
                                data.c_rank, filler=filler)
    return data, report, eq


def canonical_coset_words(m):
    """Per element of C in enumeration order, the indices of the generators
    whose product spells it, as `SquareData.coset_words` lists them."""
    return [tuple(j for j, b in enumerate(bits) if b)
            for bits in enumerate_group_elements(m)]


def evaluate_v_closed_form(chi, delta, y_value_exponent):
    """Reference: the value of the commutator-tower word v_chi over the
    infinite dihedral group with x_j = a^{k_j} b^{delta_j}, in closed form.

    With y = a^{y_value_exponent} (necessarily an even power of a) the word
    collapses to a^{y_value_exponent * 2^{|C|}} when chi matches the
    character determined by the flip bits, and to the identity otherwise.
    """
    if chi != character_of_substitution(delta):
        return IDENTITY
    return DihedralElement(y_value_exponent << (1 << len(delta)), 0)


def full_component_table(module, q):
    """Reference: the table of a non-simple q with one ComponentWitness per
    character of C, a vanishing component's content 0 and lift zero, made
    by a loop over every character as `is_simple` once made it."""
    fq = module.group.free_coordinates(q)
    components = {}
    for signs in module._split:
        v = _component(module._split, signs, fq)
        if any(v):
            x = membership_solve(module.eigenlattice_free(Character(signs)), v)
            k = gcd(*x)
            components[Character(signs)] = k, tuple(c // k for c in x)
    vanishing = 0, (0,) * module.group.rank
    return [ComponentWitness(chi, *components.get(chi, vanishing))
            for chi in module.characters]


def full_certificate_rows(eq):
    """Reference: one CertificateRow per flip pattern of a witness
    equation, made by a loop over every pattern as `certify_no_solution`
    once made them."""
    rows = []
    for i, delta in enumerate(enumerate_group_elements(eq.c_rank)):
        k = eq.used_exponent(i)
        rows.append(CertificateRow(
            delta=delta,
            matched_character=character_of_substitution(delta),
            effective_exponent=k,
            subgroup_exponent=eq.rhs_exponent * k,
            target_exponent=eq.rhs_exponent,
            obstruction=("identity-vs-nontrivial" if k == 0
                         else "nonunit-multiplier"),
        ))
    return rows


def randint_element(factor, rng, bound):
    """Reference: a random element of a factor drawn by randint; the
    factor's own one-argument randrange draw must reproduce the stream bit
    for bit."""
    if isinstance(factor, DInf):
        return DihedralElement(rng.randint(-bound, bound), rng.randint(0, 1))
    if isinstance(factor, Zed):
        return rng.randint(-bound, bound)
    assert isinstance(factor, ZedMod)
    return rng.randrange(factor.modulus)
