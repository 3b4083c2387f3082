"""Superselection-rule quantum error correction toolkit.

Modules: ``hilbert`` (finite-dimensional state/operator layer), ``klcore``
(Knill-Laflamme and sector checks), ``rotor`` (truncated planar-rotor
charge codes and group averaging), ``qcdcode`` (hadronic repetition code
and rate models), ``scatter`` (relativistic 2->2 cross-sections),
``toriccode`` (Z_N toric code with symbolic qudit Paulis), ``errors``
(the exceptions the CLI catches), ``cli`` (experiment runner).

``import ssrqec`` loads none of them: each submodule is imported the first
time it is used, as ``ssrqec.rotor`` or ``from ssrqec import rotor``.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["hilbert", "klcore", "rotor", "qcdcode", "scatter", "toriccode",
           "errors", "cli", "__version__"]
_SUBMODULES = frozenset(__all__) - {"__version__"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES)
