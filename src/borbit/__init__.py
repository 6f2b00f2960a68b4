"""Borel orbits of 2-nilpotent matrices.

Labels and representatives for the orbits, their closure order with a
Bruhat-theoretic certificate, exact tangent-space bookkeeping with a
rule-based smoothness verdict, and rational-arithmetic verification of
every identity the bookkeeping rests on.
"""

from .atlas import (
    Context,
    OrbitCoset,
    OrbitLabel,
    OrientedLinkPattern,
    TwoColumnTableau,
    coset_of,
    coset_reps,
    dim_orbit,
    dim_y0,
    dimension,
    enumerate_labels,
    involution_tau,
    is_orbital_variety,
    is_upper_label,
    label,
    label_of,
    label_perm,
    link_pattern,
    min_length_reps,
    rep_matrix,
    tableau,
)
from .geometry import (
    Flag,
    compatible,
    flag_in_schubert,
    in_Ck,
    incidence_member,
    resolution_blueprint,
    schubert_conditions,
    tangent_independence,
    verify_curve,
    witness_flag,
)
from .perms import (
    CapExceeded,
    Perm,
    bruhat_leq,
    bruhat_leq_oracle,
    compose,
    evaluate_word,
    inverse,
    length,
    reduced_word,
)
from .poset import BruhatGraph, export_dot, export_json, hasse, leq, leq_oracle, weak_edges
from .ratmat import RationalMatrix
from .tangent import (
    CurveSpec,
    Root,
    Verdict,
    bk_span,
    curve,
    phi_plus,
    phi_plus_restricted,
    s_set,
    t_k_set,
    tangent_lower_bound,
    verdict,
    weight_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
