"""Symmetric su(n) irreps, polar-decomposition phase operators, and their non-commutativity."""

__version__ = "0.1.0"

from .basis import (
    OrderedBasis,
    StringPartition,
    cartesian_embedding,
    dimension,
    edge_overlap_count,
    enumerate_basis,
    su2_strings,
    weight_of,
)
from .generators import (
    GeneratorSet,
    Monomial,
    build_generators,
    commutation_residual,
    generator_matrix,
    su2_matrices,
)
from .phases import (
    NoncommutativityReport,
    PolarFactors,
    decay_fit,
    exact_raw_norm,
    formula_su3,
    formula_su4,
    group_commutator,
    noncommutativity_norm,
    phase_hermitian,
    polar_decompose,
    polar_identity_residual,
    positive_factor,
    su2_invariant_completion,
    su2_shift_E,
    sweep,
)
from .pauli import (
    additivity_solve,
    complementarity_check,
    complementary_E12,
    complementary_E23,
    pauli_generators,
)
from .coherent import (
    dft_eigensystem,
    gamma_phase_part,
    gamma_su2,
    gamma_su3,
    hermitize_check,
    intertwiner_diagonal,
    nonhermiticity_witness,
    s_recursion_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
