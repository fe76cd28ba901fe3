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


def check_fields(value):
    """Raise ValueError naming the first float field of the dataclass ``value``
    that is not finite, then the first field that breaks its rule in the
    class's ``RULES``, if it has one, in the order listed: "positive",
    "nonnegative" or a tuple of the field's choices."""
    for f in fields(value):
        if f.type == "float" and not math.isfinite(getattr(value, f.name)):
            raise ValueError(f"{f.name} must be finite")
    for name, rule in getattr(value, "RULES", {}).items():
        x, text = getattr(value, name), rule if isinstance(rule, str) else f"one of {list(rule)}"
        if not (x in rule if isinstance(rule, tuple) else x > 0 if rule == "positive" else x >= 0):
            raise ValueError(f"{name} must be {text}, got {x!r}")
