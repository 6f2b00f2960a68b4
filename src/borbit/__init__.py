"""Borel orbits of 2-nilpotent matrices.

Labels and representatives for the orbits, their closure order with a
Bruhat-theoretic certificate, exact tangent-space bookkeeping with a
rule-based smoothness verdict, and exact verification of every identity
the bookkeeping rests on.

The namespace is lazy (PEP 562): ``import borbit`` loads no submodule,
and a public name imports its module on first use.
"""

_EXPORTS = {
    "atlas": (
        "Context", "OrbitCoset", "OrbitLabel", "coset_of", "dim_orbit", "dim_y0", "dimension",
        "enumerate_labels", "is_upper_label", "label", "label_of", "label_perm", "leq", "rep_matrix",
    ),
    "checks": ("min_length_reps",),
    "diagram": ("export_dot", "export_json"),
    "geometry": ("resolution_blueprint", "verify_curve"),
    "perms": (
        "CapExceeded", "Perm", "bruhat_leq", "compose", "evaluate_word", "inverse", "length",
        "reduced_word",
    ),
    "poset": (
        "BruhatGraph", "CoverTable", "cover_table", "hasse", "leq_oracle", "weak_edges",
    ),
    "springer": (
        "TwoColumnTableau", "involution_tau", "is_orbital_variety", "link_pattern", "tableau",
    ),
    "tangent": (
        "Root", "Verdict", "bk_span", "phi_plus", "phi_plus_restricted",
        "t_k_set", "tangent_lower_bound", "verdict",
    ),
}

#: Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's entry point, which binds the submodule here;
    # unlike importlib.import_module, -X importtime reports it.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
