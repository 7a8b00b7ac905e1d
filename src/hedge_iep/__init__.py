"""Path-to-hedge constructions and spectral rigidity on trees."""

from .algebraic import QXi
from .covers import (
    ForcingState,
    M_formula,
    Mhat_formula,
    PathCover,
    brute_force_path_cover,
    brute_force_zero_forcing,
    derived_set,
    forcing_process,
    nullity_bound_check,
    path_cover_number,
    sigma_counts,
    zero_forcing_number,
)
from .lambdas import (
    LambdaTuple,
    abc_coefficients,
    build_C,
    region_of,
    remainder_poly,
    sample_in_region,
    step_lemma_checks,
)
from .numeric import (
    char_poly_exact,
    cluster_multiplicities,
    eigenvalues_sym,
)
from .pth import (
    critical_check,
    forced_fifth_eigenvalue,
    gap_vector,
    ph_construct,
    ph_spectrum,
    recognize,
    recognize_search,
    splitting_counterexample,
    t31_constraints_check,
    t31_exact_spectrum,
    t31_lambda,
    zero_one_counterexample_check,
)
from .rigid import (
    level_figure_data,
    rigid_multiplicity_list,
    simplify_resultant,
    solve_rigid,
)
from .spectra import GapVector, MultiplicityList, SpectrumMultiset
from .trees import (
    HedgeProfile,
    RootedTree,
    ten_vertex_hedge,
    build_hedge,
    is_hedge,
    is_lush,
    pendent_paths,
    profile,
    smallest_lush_hedge,
    subtree_chain,
)
from .weights import (
    DuplicationSplit,
    WeightFn,
    WeightedMatrix,
    collapse_pendent_k_paths,
    duplicate_branch,
    symmetric_representative,
    unit_lower_representative,
)

__version__ = "0.1.0"
