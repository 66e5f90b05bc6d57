"""Exact computational engine for multi-scale stability conditions of A_n type.

Subpackages by subject: :mod:`anstab.anquiver` (quivers with potential),
:mod:`anstab.klattice` (the K-lattice braid shadow), :mod:`anstab.hearts`
(finite hearts and tilting), :mod:`anstab.stability` (central charges and the
rotation action), :mod:`anstab.multiscale` (nested hearts, plumbing,
neighborhoods), :mod:`anstab.limits` (exact degeneration limits),
:mod:`anstab.strata` (enhanced level graphs), :mod:`anstab.cli` (driver).
"""

from .anquiver import (
    QuiverWithPotential,
    StringObject,
    enumerate_strings,
    euler_pairing,
    make_linear,
    mutate,
    restrict,
)
from .exact import EC, ExactComplex, GaussianRational, Laurent, gr
from .hearts import (
    Heart,
    backward_tilt,
    canonical_form,
    convenient_representative,
    exchange_graph,
    forward_tilt,
    heart_equal,
    standard_heart,
    tilt_torsion_free,
)
from .klattice import (
    BraidWord,
    TwistGroupData,
    TwistMatrix,
    simple_twist_data,
    theta_word,
    twist_matrix,
    word_matrix,
)
from .limits import LaurentCharge, extract_limit, order_relation, plumbing_ray
from .multiscale import (
    MultiScaleStab,
    NeighborhoodSpec,
    c_act_msc,
    chart_coords,
    commutation_defect,
    equivalent,
    in_neighborhood,
    plumb,
    projectively_equivalent,
    type_rho,
    validate_msc,
)
from .stability import (
    StabilityCondition,
    c_act,
    indecomposable_spectrum,
    mass,
    phase,
    validate,
)
from .strata import (
    DoubleCover,
    EnhancedLevelGraph,
    adjacency_poset,
    census,
    double_cover,
    enumerate_graphs,
    from_msc,
    prong_count,
    undegenerate,
)

__version__ = "0.1.0"
