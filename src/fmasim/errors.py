"""Exception types and argument checks shared across the package.

The bottom module: every layer may import it, and it imports no other.
"""
import math
from dataclasses import fields

import numpy as np


class ConfigError(ValueError):
    """Scenario configuration is malformed, incomplete, or inconsistent."""


class DegenerateConfigurationError(ValueError):
    """A pose-dependent matrix is too ill-conditioned to invert reliably."""


class SimulationBlowUpError(RuntimeError):
    """A run diverged: its state or derivative became non-finite or left a bound."""


def frozen_array(a, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only float copy of ``a``, refused unless it has ``shape`` and is finite.

    Every value class takes its arrays through this, so a value never
    shares memory with, nor freezes, the array its caller passed in.
    """
    out = np.array(a, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite, got {out.tolist()}")
    out.flags.writeable = False
    return out


def checked_vector(a, name: str, n: int) -> np.ndarray:
    """``a`` as a float array, refused unless it has shape (n,) and is finite.

    ``frozen_array``'s check and wording without its copy, for arguments
    read once per call: the result may share memory with ``a``.
    """
    out = np.asarray(a, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape {(n,)}, got {out.shape}")
    if not all(map(math.isfinite, out.tolist())):
        raise ValueError(f"{name} must be finite, got {out.tolist()}")
    return out


def checked_scalar(x, name: str, rule: str = "finite"):
    """``x``, refused unless finite and, under ``rule``, positive or nonnegative.

    Compared with the infinities: ``math.isfinite`` overflows on an int past the floats.
    """
    if not -math.inf < x < math.inf:
        raise ValueError(f"{name} must be finite, got {x!r}")
    if not (x > 0 if rule == "positive" else x >= 0 if rule == "nonnegative" else rule == "finite"):
        raise ValueError(f"{name} must be {rule}, got {x!r}")
    return x


def check_fields(value):
    """Raise ValueError naming the first float field of the dataclass ``value``
    that is not finite, then the first field that breaks its rule in the
    class's ``RULES``, if it has one, in the order listed: a rule of
    ``checked_scalar`` or a tuple of the field's choices."""
    finite = [(f.name, "finite") for f in fields(value) if f.type == "float"]
    for name, rule in finite + list(getattr(value, "RULES", {}).items()):
        x = getattr(value, name)
        if isinstance(rule, str):
            checked_scalar(x, name, rule)
        elif x not in rule:
            raise ValueError(f"{name} must be one of {list(rule)}, got {x!r}")
