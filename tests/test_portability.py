"""The trace goldens under other BLAS and SIMD kernels.

A golden ``trace.csv`` must not depend on which OpenBLAS kernel or which
of numpy's SIMD targets the machine picks. OpenBLAS reads
``OPENBLAS_CORETYPE`` and numpy reads ``NPY_DISABLE_CPU_FEATURES`` once,
when they load, so each setting computes every built-in and variant
trace hash in a process of its own; the processes start together and
each test waits for its own. A setting is skipped, with the reason, only
where it cannot act: an OpenBLAS built without DYNAMIC_ARCH or one that
keeps its kernel, or a numpy or CPU without the AVX-512 targets named.
"""
import contextlib
import ctypes
import glob
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fmasim
import test_golden

AVX512_TARGETS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

SETTINGS = {
    "default": {},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_TARGETS)},
}


def _openblas():
    """OpenBLAS's build string and the kernel it runs, or None where they cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if get_config and get_corename:
                get_config.argtypes = get_corename.argtypes = []
                get_config.restype = get_corename.restype = ctypes.c_char_p
                return get_config().decode(), get_corename().decode()
    return None


def _child():
    """Print, as JSON, the kernels in use and the sha256 of every golden trace."""
    from numpy._core import _multiarray_umath as umath

    digests = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):

        def variant(name, scenario, section, updates):
            Path(tmp, name).mkdir()
            digests[name] = test_golden._variant_digest(scenario, section, updates, Path(tmp, name))

        for name in test_golden.GOLDEN:
            digests[name] = test_golden._trace_digest(name, Path(tmp, name))
        for name, (updates, _) in test_golden.VARIANTS.items():
            variant(name, "force-regulation", "controller", updates)
        for name, (section, updates, _) in test_golden.FMA_VARIANTS.items():
            variant(name, "fma-paper-deburr", section, updates)
    targets = [t for t in AVX512_TARGETS if umath.__cpu_features__.get(t) and t in umath.__cpu_dispatch__]
    print(json.dumps({"openblas": _openblas(), "avx512": targets, "digests": digests}))


@pytest.fixture(scope="module")
def runs():
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    paths = [Path(__file__).parent, Path(fmasim.__file__).parents[1], base.get("PYTHONPATH")]
    base["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths if p)
    code = "import test_portability; test_portability._child()"
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", code], env={**base, **env}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for name, env in SETTINGS.items()
    }
    results = {}

    def result(name):
        if name not in results:
            out, err = procs[name].communicate(timeout=600)
            assert procs[name].returncode == 0, err
            results[name] = json.loads(out)
        return results[name]

    yield result
    for proc in procs.values():
        proc.kill()
        proc.communicate()


def _why_inert(name, run, default):
    """The reason a setting cannot act on this build and CPU, or None."""
    env = SETTINGS[name]
    if "OPENBLAS_CORETYPE" in env and run["openblas"] and default["openblas"]:
        config, kernel = run["openblas"]
        if "DYNAMIC_ARCH" not in config:
            return f"OpenBLAS is built without DYNAMIC_ARCH ({config}), so OPENBLAS_CORETYPE picks no kernel"
        if kernel == default["openblas"][1] != env["OPENBLAS_CORETYPE"]:
            return f"OpenBLAS keeps its {kernel} kernel under OPENBLAS_CORETYPE={env['OPENBLAS_CORETYPE']}"
    if "NPY_DISABLE_CPU_FEATURES" in env and not default["avx512"]:
        return f"numpy runs none of the targets {' '.join(AVX512_TARGETS)} on this CPU, so there is none to turn off"
    return None


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_golden_traces_under_kernel_setting(name, runs):
    run = runs(name)
    reason = _why_inert(name, run, runs("default"))
    if reason:
        pytest.skip(reason)
    expected = dict(test_golden.GOLDEN)
    expected.update({trace: digest for trace, (_, digest) in test_golden.VARIANTS.items()})
    expected.update({trace: digest for trace, (*_, digest) in test_golden.FMA_VARIANTS.items()})
    moved = sorted(trace for trace, digest in expected.items() if run["digests"].get(trace) != digest)
    assert not moved, f"{name}: {SETTINGS[name]} moves {moved} (kernels: {run['openblas']}, {run['avx512']})"
