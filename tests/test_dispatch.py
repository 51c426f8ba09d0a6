"""Run outputs agree to rounding across numpy's SIMD dispatch paths.

numpy picks its loops at import from the CPU features it finds, and
``NPY_DISABLE_CPU_FEATURES`` turns the optional ones off for one process.
Its exp, log and complex multiply round differently on those paths, so
a run's bits hold only for one numpy build on one feature set.  This test
runs the same small commands in two fresh interpreters, one with every
available dispatch target and one with none, and checks that every time
series column agrees to 1e-9 of its largest magnitude: a threshold or a
tie-break that flipped on the last bits would break that.
"""

import csv
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import vpqmc

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_TARGETS = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]

_SCRIPT = textwrap.dedent("""
    import sys
    from vpqmc.driver import cli_main
    out = sys.argv[1]
    tiny = ["dt=0.1", "t_max=2"]
    runs = {
        "pic": ["solver=pic", "n_p=4000", "n_f=16", "star_disc_period=4"],
        "spectral": ["solver=spectral", "nx=32", "nv=32", "hk_period=4"],
        "coupled": ["scenario=bump_on_tail", "solver=coupled", "nx=16", "nv=16",
                    "t0=1", "n_p=4000", "n_pad=4", "n_f=16"],
    }
    for name, args in runs.items():
        assert cli_main(["run", *args, *tiny, f"outdir={out}/{name}"]) == 0
""")


def _run(out: Path, disabled: str) -> None:
    env = dict(os.environ)
    src = str(Path(vpqmc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _columns(path: Path) -> dict:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: [row[key] for row in rows] for key in rows[0]}


@pytest.mark.skipif(not _TARGETS, reason="numpy dispatches to no optional CPU target here")
def test_runs_agree_to_rounding_across_numpy_dispatch_paths(tmp_path):
    _run(tmp_path / "dispatched", "")
    _run(tmp_path / "baseline", " ".join(_TARGETS))
    for name in ("pic", "spectral", "coupled"):
        got = _columns(tmp_path / "dispatched" / name / "timeseries.csv")
        want = _columns(tmp_path / "baseline" / name / "timeseries.csv")
        assert got["segment"] == want["segment"]
        for key in set(got) - {"segment"}:
            # an optional diagnostic is empty in the same rows on both paths
            assert [cell == "" for cell in got[key]] == [cell == "" for cell in want[key]]
            a = np.array([float(cell) for cell in got[key] if cell])
            b = np.array([float(cell) for cell in want[key] if cell])
            scale = max(np.abs(b).max(initial=0.0), np.finfo(float).tiny)
            assert np.abs(a - b).max(initial=0.0) <= 1e-9 * scale, (name, key)
