"""Runs never load scipy; only ``vpqmc reconstruct`` does.

The test process itself has scipy loaded, so the runs go in a fresh
interpreter, which reports the scipy modules it holds after them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import vpqmc

_SCRIPT = textwrap.dedent("""
    import json, sys
    out = sys.argv[1]
    import vpqmc
    from vpqmc.driver import cli_main

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    tiny = ["dt=0.1", "t_max=0.2"]
    grids = ["nx=8", "nv=8"]
    markers = ["n_p=64", "n_f=8"]
    dump = f"{out}/its/final_particles.dump"
    runs = [
        ["run", "solver=spectral", *grids, *tiny, f"outdir={out}/spectral"],
        ["run", "solver=pic", "sampling=its", *markers, *tiny, f"outdir={out}/its"],
        ["run", "solver=pic", "sampling=uniform", "star_disc_period=1", *markers,
         *tiny, f"outdir={out}/uniform"],
        ["run", "solver=coupled", *grids, *markers, "t0=0.1", *tiny,
         f"outdir={out}/coupled"],
        ["sample", f"{out}/spectral/final_state.grid", f"{out}/sampled.dump", "n=32"],
        ["discrepancy", dump],
    ]
    report = {"runs": [cli_main(args) for args in runs],
              "scipy_after_runs": scipy_modules()}
    report["reconstruct"] = [
        cli_main(["reconstruct", dump, f"{out}/{mode}.grid", f"mode={mode}",
                  "nx=4", "nv=4"]) for mode in ("osde", "interp")]
    report["scipy_after_reconstruct"] = scipy_modules()
    print(json.dumps(report))
""")


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold")
    env = dict(os.environ)
    src = str(Path(vpqmc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), out


def test_runs_sample_and_discrepancy_load_no_scipy(fresh_interpreter):
    report, _ = fresh_interpreter
    assert report["runs"] == [0] * 6
    assert report["scipy_after_runs"] == []


def test_reconstruct_still_works(fresh_interpreter):
    report, out = fresh_interpreter
    assert report["reconstruct"] == [0, 0]
    assert "scipy.linalg" in report["scipy_after_reconstruct"]
    assert "scipy.sparse.linalg" in report["scipy_after_reconstruct"]
    assert (out / "osde.grid").exists() and (out / "interp.grid").exists()
