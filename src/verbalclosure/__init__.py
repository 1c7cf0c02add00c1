"""Decide verbal closedness of infinite dihedral subgroups by exact arithmetic.

The pipeline: present the subgroup Q generated by all squares of the ambient
group as an abelian group with commuting involutions from conjugation, test
whether a^2 has a primitive character component, and emit either a verified
retraction onto the dihedral subgroup or a witness equation with a
machine-checkable no-solution certificate.
"""

from .ambient import (
    AmbientGroup,
    DInf,
    GroupSpec,
    NormalizationFailure,
    NotAnInvolution,
    NotInfiniteOrder,
    NotInQ,
    NotInverted,
    RetractionData,
    SpecError,
    SpecParseError,
    SquareData,
    Verdict,
    Zed,
    ZedMod,
    analyze,
    build_retraction,
    g_solution,
    image_of_a_squared,
    parse_word,
    square_data,
    validate_spec,
    verify_retraction,
    verify_solution_closed_form,
    verify_solution_in_G,
)
from .dihedral import (
    DIHEDRAL_OPS,
    DihedralElement,
    InvalidEquation,
    NoSolutionCertificate,
    certify_no_solution,
    character_of_substitution,
    spot_check_no_solution,
)
from .involutions import (
    Character,
    ComponentWitness,
    InvolutionModule,
    NotEpimorphism,
    NotSimple,
    SimplicityReport,
    enumerate_characters,
    enumerate_group_elements,
    factor_through,
    project,
    project_via_epimorphism,
)
from .lattice import (
    AbelianPresentation,
    Lattice,
    NotInLattice,
    content_and_primitive_part,
    kernel_basis,
    membership_solve,
    smith_normal_form,
)
from .words import (
    Concat,
    CountingOps,
    Equation,
    Gen,
    GroupOps,
    Inv,
    NotAWitness,
    Pow,
    UnboundGenerator,
    WordEquation,
    build_v_chi,
    build_w_chi,
    build_witness_equation,
    evaluate,
    parse_equation,
    serialize_equation,
    skew_commutator,
)

__version__ = "1.0.0"
