"""polycount: exact counting via graph polynomials.

Forest/Tutte evaluation with exact rational arithmetic, two oracle-based
counting reductions (perfect matchings through a forest-sum oracle on simple
graphs; independent sets through a bipartite vertex-cover oracle), and a
Boolean constraint-counting layer, all verified step by step against
brute-force enumeration.
"""

from .bis_reduction import BisRunResult, conditioned_vc, count_is, gadget_counts, type_of
from .csp import (
    BooleanRelation,
    CspInstance,
    classify,
    count_affine,
    count_bruteforce,
    imp2sat_from_bipartite,
    is_affine,
    pos2sat_from_graph,
)
from .errors import BudgetError, GraphParseError
from .forest import (
    ForestPolyResult,
    apex_rhs,
    forest_poly_bruteforce,
    forest_poly_sp,
    forest_value_bruteforce,
    pm_coefficient_extract,
    stretched_edge_weight,
    tutte_y1,
)
from .graphs import (
    BlockPartition,
    Edge,
    Multigraph,
    add_apex,
    format_graph,
    gadget_size,
    named_graph,
    parse_graph,
    partition_edges,
    stretch,
    substitute_gadget,
)
from .oracles import (
    forests_bruteforce,
    is_bruteforce,
    pm_bruteforce,
    vc_bipartite,
    vc_bruteforce,
)
from .pm_reduction import (
    PmReductionParams,
    PmRunResult,
    block_interpolation,
    count_pm,
    simulate_oracle_via_stretch,
)
from .polynomials import (
    SparsePolynomial,
    VandermondeFactor,
    grid_interpolate,
    kron,
    kron_det_check,
    kronecker_solve,
)

__version__ = "0.1.0"
