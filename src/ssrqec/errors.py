"""Exceptions raised by the domain modules and caught by the CLI, and the
one memory budget: every size guard calls ``check_budget`` on a closed form
of the bytes it would hold, which raises before anything is allocated.

Importing this module loads no domain module; ``toriccode`` and
``scatter`` re-export the classes under their old names.
"""

# Bytes a run may hold at once, for every guard that refuses by size.
MEMORY_BUDGET = 2 ** 30


class GuardExceededError(RuntimeError):
    """A desk-scale size guard was exceeded."""


class PropagatorPoleError(ArithmeticError):
    """Kinematics too close to the intermediate-state pole."""


def check_budget(need: int, what: str) -> None:
    """GuardExceededError when ``what`` would hold more than ``MEMORY_BUDGET`` bytes."""
    if need > MEMORY_BUDGET:
        raise GuardExceededError(f"{what} needs {need / 2 ** 20:.0f} MiB and exceeds the "
                                 f"{MEMORY_BUDGET / 2 ** 20:.0f} MiB budget")
