"""Exact computation on lamplighter-like wreath products: forged finite-index
subgroups, their coset dynamics, and certified freeness/comparison/castle
properties of the resulting profinite-style actions.

The package imports its modules lazily: ``import allostery`` loads none of
them, and each exported name imports its module on first use (PEP 562), so
a command compiles only the modules it runs.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "base": ("frac_str", "is_prime", "minimal_exponent", "primes"),
    "castle": ("Castle", "Tower", "audit_castle", "check_castle_audit", "parse_castle_file"),
    "certificates": (
        "build_criterion", "certify_transitive", "check_criterion_certificate",
        "check_non_af_report", "non_af_report", "verify_criterion", "window_from_records",
    ),
    "comparison": (
        "boolean_atoms", "check_comparison_certificate", "comparison_certificate",
        "translate_closure",
    ),
    "config": ("RunConfig", "apply_env", "load_config", "parse_config"),
    "dynamics": (
        "FiniteLevel", "OrbitResult", "Window", "stabilizer_witness",
    ),
    "errors": (
        "AllosteryError", "BudgetExceededError", "CertificateError", "DatumInvariantError",
        "ForgeError", "MeasureConditionError", "RankMismatchError", "TextParseError",
        "WindowError",
    ),
    "forge": (
        "PrimeAssignment", "SubgroupDatum", "assign_primes", "default_epsilon", "forge",
        "prime_admissible",
    ),
    "wreath": ("Lamp", "WreathElement", "WreathGroup", "format_element", "parse_element"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


class _Package(type(sys)):
    """The package's module type.  Its one addition keeps ``allostery.forge``
    the function: the import system binds each submodule to its package's
    attribute of the same name when the submodule first loads, which would
    otherwise replace the exported function by the module ``allostery.forge``
    (``importlib.import_module("allostery.forge")`` still gives the module)."""

    @property
    def forge(self):
        from .forge import forge

        return forge

    @forge.setter
    def forge(self, module):
        """Absorbs the binding of the submodule; nothing else may rebind it."""
        submodule = sys.modules.get(f"{__name__}.forge")
        if submodule is None or module is not submodule:
            raise AttributeError(f"{__name__}.forge is the function forge and is read-only")


sys.modules[__name__].__class__ = _Package
