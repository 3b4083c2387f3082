"""Exceptions raised by the domain modules and caught by the CLI.

Importing this module loads no domain module; ``toriccode`` and
``scatter`` re-export the classes under their old names.
"""


class GuardExceededError(RuntimeError):
    """A desk-scale size guard was exceeded."""


class PropagatorPoleError(ArithmeticError):
    """Kinematics too close to the intermediate-state pole."""
