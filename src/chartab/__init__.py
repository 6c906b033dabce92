"""Exact character theory of finite permutation groups.

Conjugacy classes, cyclotomic arithmetic, class functions, irreducible
character tables, matrix representations, and the structural theorems
(orthogonality, degree divisibility, Burnside non-simplicity/solvability)
as executable checks, all in exact arithmetic.
"""

from .cyclo import Cyclo, CycloError, cyclotomic_polynomial, euler_phi, from_rational, root_of_unity
from .permgroup import (
    ClassData,
    GroupMismatchError,
    NormalSubgroup,
    ParseError,
    Perm,
    PermGroup,
    ResourceCapError,
    Subgroup,
    parse_group_spec,
)
from .classfun import (
    ClassFunction,
    NotACharacterError,
    bilinear_form,
    decompose,
    dft_cyclic,
    inner_product,
    inverse_dft_cyclic,
    is_irreducible,
    plancherel_check,
    regular_character,
    sym_alt_square,
    trivial_character,
)
from .tablegen import (
    CharacterTable,
    ClassConstants,
    TableConstructionError,
    build_character_table,
    choose_prime,
    class_constants,
    class_matrix,
    degrees_from_eigen,
    lift_characters,
    linear_characters,
    modp_eigenbasis,
)
from .reps import (
    InconsistentRepError,
    MatrixRep,
    OrthogonalityReport,
    builtin_rep,
    character_of,
    check_matrix_orthogonality,
    permutation_character,
    standard_character,
)
from .analysis import (
    RestrictionReport,
    burnside_class_test,
    burnside_solvability,
    check_all,
    regular_decomposition,
    restrict,
    restriction_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
