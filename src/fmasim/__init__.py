"""Serial-chain kinematic influence coefficients, dual-input
force/motion actuation, and position-based force control, with a
deterministic scenario runner on top.

The submodules layer bottom-up: spatial -> kinematics -> dynamics ->
fma / force_control -> simulation -> config -> cli. Each name is
imported from the module that defines it, e.g.
``from fmasim.kinematics import compute_gkic``.
"""

__version__ = "0.1.0"
