"""The benchmark's contract with the program: every function that
``perfbench/run.py`` traces exists, and every workload command parses.

A refactor that renames a traced function, or a config rule that refuses
a benchmark command, fails here instead of in the benchmark.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from vpqmc.driver import parse_config

_RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_bench():
    # executed from its source, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_run")
    module.__file__ = str(_RUN_PY)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(_RUN_PY.read_text(), str(_RUN_PY), "exec"), module.__dict__)
    return module


bench = _load_bench()


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in bench.TRACED])
def test_traced_function_resolves(module, path):
    owner = importlib.import_module(f"vpqmc.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 5])
def test_benchmark_command_parses(name, seed):
    w = bench.WORKLOADS[name]
    args = bench.run_args(w, seed)
    cfg = parse_config(None, args)
    if w.seeded:
        assert cfg.sobol_skip == bench.sobol_skip(seed)
