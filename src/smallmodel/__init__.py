"""Verification toolkit for stabilizer-dimension certificates.

Finite simplicial complexes and exact homology, the diagonal-in-the-square
machinery on flag complexes, orbit smallness certificates, rational and
finite-field flag calculations, multicurve combinatorics on surfaces, and
cup-product obstructions. Everything is exact (integer or rational); no
floating point enters any verdict.
"""

from .complexes import (
    ChainComplex,
    ComplexError,
    HomologyTable,
    SimplicialComplex,
    chain_complex,
    homology,
    tensor_total,
)
from .cupforms import (
    FormError,
    RankOneRing,
    SurjectionWitness,
    TripleForm,
    compression_criterion_b2,
    find_betas,
    projective_space_ring,
    rank_one_obstruction,
    rational_is_square,
)
from .diagonal import (
    build_diagonal,
    check_retraction,
    decomposition_check,
    long_exact_consistency,
)
from .flags import (
    FlagError,
    RationalFlag,
    complete_flag_count,
    coordinate_flag,
    finite_building,
    orbit_codim,
    slm_inequality,
    split_dims,
    stab_dim,
    stab_pair_dim,
)
from .normalform import DEFAULT_BIT_BOUND, PivotExplosion, invariant_factors, rank_mod_p
from .report import Report
from .smallness import (
    Hdim,
    HomologySupportProblem,
    Orbit,
    OrbitComplex,
    PairEntry,
    check_small,
    generate_join_model,
    parity_obstruction,
    simply_connected_obstruction,
    vanishing_certificate,
)
from .surfaces import (
    CutSurfaceGraph,
    SurfaceType,
    curve_complex_certificate,
    enumerate_multicurves,
    harer_dim,
    lemma_smallstabilizers_sweep,
    multicurve_stab_hdim,
    pants_decompositions,
)

__version__ = "0.1.0"
