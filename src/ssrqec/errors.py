"""Exceptions raised by the domain modules and caught by the CLI, the one
memory budget: every size guard calls ``check_budget`` on a closed form
of the bytes it would hold, which raises before anything is allocated;
and the KL violation record that both KL reports share: at most
``MAX_RECORDED_VIOLATIONS`` entries, written by ``violations_to_json``.

Importing this module loads no domain module; ``toriccode`` and
``scatter`` re-export the classes under their old names.
"""

# Bytes a run may hold at once, for every guard that refuses by size.
MEMORY_BUDGET = 2 ** 30
MAX_RECORDED_VIOLATIONS = 100


class GuardExceededError(RuntimeError):
    """A desk-scale size guard was exceeded."""


class PropagatorPoleError(ArithmeticError):
    """Kinematics too close to the intermediate-state pole."""


def check_budget(need: int, what: str) -> None:
    """GuardExceededError when ``what`` would hold more than ``MEMORY_BUDGET`` bytes."""
    if need > MEMORY_BUDGET:
        raise GuardExceededError(f"{what} needs {need / 2 ** 20:.0f} MiB and exceeds the "
                                 f"{MEMORY_BUDGET / 2 ** 20:.0f} MiB budget")


def violations_to_json(violations) -> list[dict]:
    """Recorded (a, b, i, j, deviation) entries as report JSON objects."""
    return [{"a": a, "b": b, "i": i, "j": j,
             "deviation_re": dev.real, "deviation_im": dev.imag}
            for (a, b, i, j, dev) in violations]
