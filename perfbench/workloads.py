"""The three benchmark workloads and the checks on their outputs.

Each workload is set up once per run from the seed (``__init__``), then
runs any number of identical passes (``run_pass``). ``check`` verifies one
pass's outputs by computations kept apart from the runners: closed-form
references, the public laws the runners claim to agree with, physical
invariants and byte-level determinism. It returns the failed checks, so
an empty list means the pass is correct. Checks run outside the timed
region and outside tracing.

Library functions are always looked up on the module objects at call
time, so the tracer's wrappers see every call a pass makes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Home pose of the built-in contact scenarios; chain-dynamics starts near it.
HOME = np.array([0.0, -0.6, 0.9, 0.0, 0.7, 0.0])
GRAVITY_VECTOR = np.array([0.0, 0.0, -9.81])


def _cli(mods, argv) -> int:
    """``fmasim <argv>`` in-process; the summary it prints is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mods.cli.main(argv)


def _read_trace(path: Path) -> tuple[bytes, tuple, np.ndarray]:
    raw = path.read_bytes()
    header, _, body = raw.partition(b"\n")
    data = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return raw, tuple(header.decode("ascii").split(",")), data


def _rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


class Deburr:
    """``fmasim simulate --config fma-paper-deburr --seed <seed>``."""

    name = "deburr"
    scenario_name = "fma-paper-deburr"
    check_stride = 10  # rows re-derived per pass: every 10th of 10,001

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.seed = seed
        self.out = out_dir / "run"
        cfg = mods.config.replace_values(
            mods.config.load_scenario(self.scenario_name), "run", seed=seed
        )
        self.scenario = mods.config.build_scenario(cfg)
        self.first_hash = None
        self.sensor_samples = 0

    def run_pass(self):
        argv = ["simulate", "--config", self.scenario_name, "--seed", str(self.seed)]
        return _cli(self.mods, argv + ["--out", str(self.out)])

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def check(self, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        raw, columns, data = _read_trace(self.out / "trace.csv")
        col = {name: data[:, i] for i, name in enumerate(columns)}
        failures = []

        digest = hashlib.sha256(raw).hexdigest()
        if self.first_hash is None:
            self.first_hash = digest
        elif digest != self.first_hash:
            failures.append("trace.csv differs from the first pass with the same seed")

        sc = self.scenario
        t = col["t"]
        total, peak = sc.duration, sc.peak_speed
        ramp = total / 4.0
        accel = peak / ramp
        # Closed-form trapezoid: ramp up, cruise, and the mirror image of
        # the ramp up measured back from the end.
        q_ref = sc.q0 + np.where(
            t <= ramp,
            0.5 * accel * t**2,
            np.where(t < 3.0 * ramp, peak * (t - 0.5 * ramp), peak * (total - ramp) - 0.5 * accel * (total - t) ** 2),
        )
        qd_ref = peak * np.minimum(np.minimum(t / ramp, 1.0), (total - t) / ramp)
        qdd_ref = np.where(t <= ramp, accel, np.where(t < 3.0 * ramp, 0.0, -accel))
        if _rel_err(col["q_ref"], q_ref) > 1e-12:
            failures.append(f"q_ref departs from the closed-form trapezoid by {_rel_err(col['q_ref'], q_ref):.3g}")
        if _rel_err(col["qd_ref"], qd_ref) > 1e-12:
            failures.append("qd_ref departs from the closed-form trapezoid")

        # Allocation weight from a zero-primed moving average of tau_ext.
        window = sc.tau_filter_window
        padded = np.concatenate([np.zeros(window - 1), col["tau_ext"]])
        filtered = np.lib.stride_tricks.sliding_window_view(padded, window).sum(axis=1) / window
        policy = sc.weighting
        fma = self.mods.fma
        plant, ctrl = sc.plant, sc.controller_model
        dt = sc.timestep

        v_err = qm_err = step_err = 0.0
        for k in range(0, t.size - 1, self.check_stride):
            weight = policy.quiet if filtered[k] < policy.torque_threshold else policy.disturbed
            q, qd = col["q"][k], col["qd"][k]
            v = fma.computed_torque_voltage(
                ctrl, q, qd, q_ref[k], qd_ref[k], qdd_ref[k], kp=sc.kp, kv=sc.kv, weight=weight
            )
            v_err = max(v_err, _rel_err([col["v1"][k], col["v2"][k]], v))
            qm = fma.weighted_pseudo_inverse(plant.g_row, weight) * qd
            qm_err = max(qm_err, _rel_err([col["qM1"][k], col["qM2"][k]], qm))

            v_rec = np.array([col["v1"][k], col["v2"][k]])
            tau_ext = col["tau_ext"][k]

            def f(y):
                return np.array(
                    [y[1], fma.reduced_dynamics(plant, y[0], y[1], v_rec, tau_ext, weight)]
                )

            y = np.array([q, qd])
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y_next = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            step_err = max(step_err, _rel_err([col["q"][k + 1], col["qd"][k + 1]], y_next))
        if v_err > 1e-9:
            failures.append(f"v1,v2 depart from computed_torque_voltage by {v_err:.3g}")
        if qm_err > 1e-9:
            failures.append(f"qM1,qM2 depart from the weighted pseudo-inverse by {qm_err:.3g}")
        if step_err > 1e-9:
            failures.append(f"an RK4 tick of reduced_dynamics misses the next row by {step_err:.3g}")
        return failures


class Contact:
    """``fmasim simulate`` on force-regulation and compliant-kp03.

    The seed draws the surface's start height below the tool, 4.0 to
    5.0 mm, for both scenarios; the scenarios are written as config files
    in set-up and each pass runs them through the CLI.
    """

    name = "contact"
    scenario_names = ("force-regulation", "compliant-kp03")
    overshooting = ("compliant-kp03",)

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.seed = seed
        self.out = out_dir
        rng = np.random.default_rng(seed)
        height = float(rng.uniform(4.0e-3, 5.0e-3))
        self.runs = []
        self.sensor_samples = 0
        for name in self.scenario_names:
            cfg = mods.config.load_scenario(name)
            cfg = mods.config.replace_values(cfg, "reference", start_height=height)
            cfg = mods.config.replace_values(cfg, "run", seed=seed)
            path = out_dir / f"{name}.ini"
            path.write_text(mods.config.serialize_config(cfg), encoding="ascii")
            sc = mods.config.build_scenario(cfg)
            surface = sc.surface
            compliance = sum(
                1.0 / k
                for k in (surface.stiffness, surface.sensor_stiffness, surface.tool_stiffness)
                if math.isfinite(k)
            )
            self.runs.append(
                SimpleNamespace(
                    name=name, config=path, out=out_dir / name, scenario=sc, k_eff=1.0 / compliance,
                    first_hash=None,
                )
            )
            # Samples that can reach the control law: the last
            # min(filter_window, substeps) of each tick's sensor stream.
            ticks = round(sc.duration * sc.control_rate)
            substeps = max(1, round(1.0 / sc.control_rate / sc.physics_timestep))
            self.sensor_samples += ticks * min(sc.filter_window, substeps)

    def run_pass(self):
        return [
            _cli(self.mods, ["simulate", "--config", str(r.config), "--seed", str(self.seed), "--out", str(r.out)])
            for r in self.runs
        ]

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for r in self.runs for p in r.out.iterdir())

    def check(self, exit_codes) -> list[str]:
        failures = []
        for r, code in zip(self.runs, exit_codes):
            if code != 0:
                failures.append(f"{r.name}: exit code {code}")
                continue
            raw, columns, data = _read_trace(r.out / "trace.csv")
            col = {name: data[:, i] for i, name in enumerate(columns)}
            digest = hashlib.sha256(raw).hexdigest()
            if r.first_hash is None:
                r.first_hash = digest
            elif digest != r.first_hash:
                failures.append(f"{r.name}: trace.csv differs from the first pass with the same seed")

            sc = r.scenario
            z = col["q"]  # tool height; row 0 is the home pose
            f_final = col["tau_ext"][-1]
            penetration = (z[0] - sc.start_height) - z[-1]
            spring = -r.k_eff * penetration
            if abs(f_final - spring) > 1e-6 * abs(spring):
                failures.append(f"{r.name}: final force {f_final!r} N is not the series-spring force {spring!r} N")
            target = abs(sc.force_target)
            if abs(abs(f_final) - target) > 0.02 * target:
                failures.append(f"{r.name}: final force {f_final!r} N is not within 2% of {target!r} N")
            if r.name in self.overshooting and np.max(np.abs(col["tau_ext"])) <= 1.005 * target:
                failures.append(f"{r.name}: force response does not overshoot")
        return failures


class ChainDynamics:
    """RK4 integration of unforced powercube6 under gravity.

    The seed draws the start configuration, home plus up to 0.3 rad per
    joint, starting at rest, and the joint torques of the three
    forward/inverse round-trip checks.
    """

    name = "chain-dynamics"
    steps = 30
    dt = 2.0e-3

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.chain = mods.fixtures.chain_fixture("powercube6")
        rng = np.random.default_rng(seed)
        self.y0 = np.concatenate([HOME + rng.uniform(-0.3, 0.3, 6), np.zeros(6)])
        self.round_trip_torques = rng.normal(0.0, 5.0, (3, 6))
        self.sensor_samples = 0

    def run_pass(self):
        mods, chain, dt = self.mods, self.chain, self.dt
        n = chain.dof
        zero_tau = np.zeros(n)
        evaluations = []

        def deriv(_t, y):
            qdd = mods.dynamics.forward_dynamics(chain, y[:n], y[n:], zero_tau)
            out = np.concatenate([y[n:], qdd])
            evaluations.append(out)
            return out

        states = [self.y0]
        tool_acc = []
        y = self.y0
        for k in range(self.steps):
            evaluations.clear()
            y_next = mods.simulation.rk4_step(deriv, y, k * dt, dt)
            # The first RK4 stage is the derivative at the step's start.
            kic = mods.kinematics.compute_gkic(chain, y[:n])
            tool_acc.append(mods.kinematics.ee_acceleration(kic.G, kic.H, y[n:], evaluations[0][n:]))
            y = y_next
            states.append(y)
        return np.array(states), np.array(tool_acc)

    def output_bytes(self) -> int:
        return 0

    def _energy(self, y) -> tuple[float, float]:
        """Kinetic and potential energy from link-COM coefficients, not the inertia matrix."""
        kin = self.mods.kinematics
        chain = self.chain
        n = chain.dof
        q, qd = y[:n], y[n:]
        rots, _ = kin.frame_transforms(chain, q)
        potential = -float(np.sum(chain.masses * (kin.com_positions(chain, q) @ GRAVITY_VECTOR)))
        kinetic = 0.0
        for j in range(n):
            g = kin.g_function(chain, q, ("com", j + 1))
            v, w = g[:3] @ qd, g[3:] @ qd
            inertia = rots[j] @ chain.inertias[j] @ rots[j].T
            kinetic += 0.5 * chain.masses[j] * float(v @ v) + 0.5 * float(w @ inertia @ w)
        return kinetic, potential

    def check(self, result) -> list[str]:
        states, tool_acc = result
        mods, chain, dt = self.mods, self.chain, self.dt
        n = chain.dof
        failures = []

        ke0, pe0 = self._energy(states[0])
        ke1, pe1 = self._energy(states[-1])
        gained = ke1 - ke0
        drift = abs((ke1 + pe1) - (ke0 + pe0)) / gained if gained > 0.0 else math.inf
        if drift > 1e-7:
            failures.append(f"energy drifted by {drift:.3g} of the kinetic energy gained")

        for k, tau in zip((0, self.steps // 2, self.steps), self.round_trip_torques):
            q, qd = states[k][:n], states[k][n:]
            qdd = mods.dynamics.forward_dynamics(chain, q, qd, tau)
            back = mods.dynamics.inverse_dynamics(chain, mods.kinematics.JointState(q, qd, qdd))
            if _rel_err(back, tau) > 1e-9:
                failures.append(f"inverse_dynamics misses forward_dynamics at step {k} by {_rel_err(back, tau):.3g}")

        # Central difference of the tool twist G(q) qd along the trajectory.
        twist = np.array([mods.kinematics.g_function(chain, s[:n]) @ s[n:] for s in states])
        fd = (twist[2:] - twist[:-2]) / (2.0 * dt)
        err = np.max(np.abs(fd - tool_acc[1:]), axis=1) / np.maximum(np.max(np.abs(tool_acc[1:]), axis=1), 1e-9)
        if np.max(err) > 1e-3:
            failures.append(f"ee_acceleration departs from a finite difference of G qd by {np.max(err):.3g}")
        return failures


WORKLOADS = {w.name: w for w in (Deburr, Contact, ChainDynamics)}
