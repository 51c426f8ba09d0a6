"""Runs never load scipy; only ``vpqmc reconstruct`` does.  The compiled
kernels are built once into the package's ``__pycache__``, and a cached
import loads them without starting a process.

The test process itself has scipy and subprocess loaded, so the runs and
imports go in fresh interpreters, which report what they hold.  The
build tests work on a copy of the package, so the real cache is
untouched.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import vpqmc
from vpqmc import _kernels

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


_IMPORT = textwrap.dedent("""
    import sys
    import numpy as np
    import vpqmc.driver
    from vpqmc.lowdisc import star_discrepancy
    assert star_discrepancy(np.array([[0.5, 0.5]])) == 0.75
    print("subprocess" in sys.modules)
""")


def _fresh_import(package_root, **env_changes):
    env = dict(os.environ, PYTHONPATH=str(package_root), **env_changes)
    return subprocess.Popen([sys.executable, "-c", _IMPORT], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the package's sources, with no cache, under tmp_path."""
    shutil.copytree(Path(vpqmc.__file__).parent, tmp_path / "vpqmc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _cache_files(root):
    cache = root / "vpqmc" / "__pycache__"
    return sorted(p.name for p in cache.iterdir() if not p.name.endswith(".pyc"))


def test_racing_first_imports_build_one_library_then_load_it(package_copy):
    # two first imports at once (the cache is written even when bytecode
    # is not): each either builds and moves a whole library into place
    # under the one name, or loads the one already there
    procs = [_fresh_import(package_copy, PYTHONDONTWRITEBYTECODE="1") for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    built = _cache_files(package_copy)
    assert len(built) == 1 and built[0].startswith("_kernels-") and built[0].endswith(".so")
    mtime = (package_copy / "vpqmc" / "__pycache__" / built[0]).stat().st_mtime_ns

    # a cached import loads the library as it is and starts no process
    proc = _fresh_import(package_copy)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.split() == ["False"]
    assert _cache_files(package_copy) == built
    assert (package_copy / "vpqmc" / "__pycache__" / built[0]).stat().st_mtime_ns == mtime


def test_a_rebuild_after_a_source_edit_leaves_one_library(package_copy):
    # once the library of an edited source is in place, the old one is
    # deleted; the cache holds that one library and no temporary file
    def import_and_list():
        proc = _fresh_import(package_copy)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        built = _cache_files(package_copy)
        assert len(built) == 1 and built[0].startswith("_kernels-"), built
        assert built[0].endswith(".so"), built
        return built

    before = import_and_list()
    with open(package_copy / "vpqmc" / "_kernels.c", "a") as fh:
        fh.write("\n/* edited */\n")
    assert import_and_list() != before


def test_a_failed_build_raises_import_error_with_the_command(package_copy):
    proc = _fresh_import(package_copy, PATH="")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert "ImportError: building the vpqmc kernels failed: " in err
    assert " ".join([_kernels.COMPILER, *_kernels.FLAGS]) in err
    assert _cache_files(package_copy) == []


def test_the_kernel_source_compiles_without_warnings():
    # the import-time build shows compiler output only when it fails
    cmd = [_kernels.COMPILER, "-fsyntax-only", "-std=c99", "-Wall", "-Wextra",
           "-Wpedantic", "-Werror", _kernels._SOURCE]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
