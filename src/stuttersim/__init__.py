"""Stuttering simulation preorder and equivalence on finite Kripke structures.

The public names load with their module on first access (PEP 562), so a
process imports only the modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "checker": ("CheckVerdict", "check_preorder"),
    "engine": ("RefinementEngine", "compute_preorder"),
    "formats": (
        "ParseError",
        "generate_random_ks",
        "parse_ks",
        "parse_relation",
        "serialize_ks",
        "serialize_result",
    ),
    "model": (
        "KripkeStructure",
        "NotAPreorderError",
        "SimulationResult",
        "ValidationError",
        "labeling_partition",
        "quotient",
    ),
    "preprocess": ("CollapseMap", "collapse_inert_sccs"),
    "reference": ("naive_stuttering_simulation", "pos_naive", "simulator_sets"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
