"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Scenario configuration is malformed, incomplete, or inconsistent."""


class DegenerateConfigurationError(ValueError):
    """A pose-dependent matrix is too ill-conditioned to invert reliably."""


class SimulationBlowUpError(RuntimeError):
    """A run diverged: its state or derivative became non-finite or left a bound."""
