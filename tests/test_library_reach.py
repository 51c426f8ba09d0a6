"""Every public function, class and method of the library, every field of
its dataclasses and named tuples, and every defaulted parameter is used by
a run, by the benchmark, or by the documented API.

The code that can reach the library is ``src/vpqmc`` and
``perfbench/*.py``; README documents a name by naming it in a code span
or code block, and ``perfbench/run.py`` traces the names in its
``TRACED`` table.

* A name counts as reached when it is used (as an AST ``Name`` or
  ``Attribute``) outside its own definition, traced, or documented.
* A method name that two or more library classes define is matched by its
  owner: the method counts as reached when it is traced, documented, or
  its own code runs during tiny in-process ``cli_main`` runs of each
  solver and each subcommand.
* A field counts as read when it is read as an attribute, or documented.
* A defaulted parameter counts as passed when some call of the same callee
  name passes it, by keyword or by position.
* Every parameter of every library function, method and lambda is read
  (as an AST ``Name``) in its body.

Code that only tests call, read or pass belongs in ``tests/``.
"""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from test_perfbench_contract import bench
from vpqmc.driver import cli_main

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "vpqmc").glob("*.py")
                 if p.name != "__init__.py")
TREES = {path: ast.parse(path.read_text())
         for path in LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))}
TRACED = {(module, attr) for module, attr, _, _ in bench.TRACED}


def _documented(text):
    """The words of README's code blocks and inline code spans."""
    fence = re.compile(r"```(.*?)```", re.S)
    code = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
    return set(re.findall(r"\w+", " ".join(code)))


DOCUMENTED = _documented((ROOT / "README.md").read_text())


def _definitions(tree):
    """(qualified name, node) of each public top-level function and class
    and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _uses(tree):
    """(name, line) of every Name and Attribute use in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _shared_method_names():
    """Method names that two or more library classes define."""
    count = Counter(qualname.split(".")[1] for path in LIBRARY
                    for qualname, _ in _definitions(TREES[path]) if "." in qualname)
    return {name for name, n in count.items() if n >= 2}


def test_every_library_name_is_reached():
    uses = {path: list(_uses(tree)) for path, tree in TREES.items()}
    shared = _shared_method_names()
    unreached = []
    for path in LIBRARY:
        for qualname, node in _definitions(TREES[path]):
            name = qualname.rsplit(".", 1)[-1]
            if "." in qualname and name in shared:
                continue  # matched by owner below
            own = range(node.lineno, node.end_lineno + 1)
            reached = ((path.stem, qualname) in TRACED or name in DOCUMENTED
                       or any(used == name and not (where == path and line in own)
                              for where, found in uses.items()
                              for used, line in found))
            if not reached:
                unreached.append(f"{path.stem}.{qualname}")
    assert not unreached, f"reached only from tests: {unreached}"


@pytest.fixture(scope="module")
def run_codes(tmp_path_factory):
    """The code objects called during tiny runs of each solver and subcommand."""
    out = tmp_path_factory.mktemp("reach")
    grid = out / "spectral" / "final_state.grid"
    dump = out / "pic" / "final_particles.dump"
    grids = ["nx=8", "nv=8", "dt=0.1", "t_max=0.2"]
    markers = ["n_p=64", "n_f=8"]
    commands = [
        ["run", "solver=spectral", *grids, "hk_period=1", "dump_stride=1",
         f"outdir={out / 'spectral'}"],
        ["run", "solver=pic", *markers, "dt=0.1", "t_max=0.2", "star_disc_period=1",
         "dump_stride=1", f"outdir={out / 'pic'}"],
        ["run", "solver=coupled", *grids, *markers, "n_pad=2", "t0=0.1",
         f"outdir={out / 'coupled'}"],
        ["sample", str(grid), str(out / "sampled.dump"), "n=32"],
        ["reconstruct", str(dump), str(out / "osde.grid"), "nx=4", "nv=4"],
        ["reconstruct", str(dump), str(out / "interp.grid"), "mode=interp",
         "nx=4", "nv=4", "lam=0.1"],
        ["discrepancy", str(dump)],
        ["hk-variation", str(grid)],
        ["dump-info", str(dump)],
    ]
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        status = [cli_main(command) for command in commands]
    finally:
        sys.setprofile(previous)
    assert status == [0] * len(commands)
    return codes


def _own_code(path, qualname):
    """The code object of a method or property getter."""
    cls, name = qualname.split(".")
    attr = vars(getattr(importlib.import_module(f"vpqmc.{path.stem}"), cls))[name]
    func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
    return func.__code__


def test_every_shared_method_name_is_reached_by_its_owner(run_codes):
    shared = _shared_method_names()
    unreached = []
    for path in LIBRARY:
        for qualname, _ in _definitions(TREES[path]):
            name = qualname.rsplit(".", 1)[-1]
            if ("." in qualname and name in shared and name not in DOCUMENTED
                    and (path.stem, qualname) not in TRACED
                    and _own_code(path, qualname) not in run_codes):
                unreached.append(f"{path.stem}.{qualname}")
    assert not unreached, f"reached only from tests: {unreached}"


def _is_record(node):
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases))


def test_every_field_is_read():
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{node.name}.{item.target.id}" for path in LIBRARY
              for node in TREES[path].body
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read and item.target.id not in DOCUMENTED]
    assert not unread, f"fields read only from tests: {unread}"


def _defaulted(callee, qualname, fn, skip):
    """(callee, qualified name, parameter, position) of each defaulted
    parameter of ``fn``; the position counts the arguments a call passes
    (``skip`` leaves out self or cls) and is None for keyword-only ones."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield callee, qualname, arg.arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield callee, qualname, arg.arg, None


def _defaulted_parameters(tree):
    """The defaulted parameters of the public functions and methods and of
    each public class's ``__init__``; a call of ``__init__`` is a call of
    its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    callee = node.name
                elif item.name.startswith("_"):
                    continue
                else:
                    callee = item.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                yield from _defaulted(callee, f"{node.name}.{item.name}", item,
                                      0 if static else 1)


def _passes(call, param, position):
    """Whether a call passes a parameter, by keyword or by position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        any(isinstance(a, ast.Starred) for a in call.args)
        or len(call.args) > position)


def test_every_defaulted_parameter_is_passed():
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [f"{path.stem}.{qualname}({param})" for path in LIBRARY
                for callee, qualname, param, position in _defaulted_parameters(TREES[path])
                if not any(_passes(call, param, position) for call in calls.get(callee, ()))]
    assert not unpassed, f"parameters passed only from tests: {unpassed}"


def test_every_parameter_is_read():
    unread = []
    for path in LIBRARY:
        for node in ast.walk(TREES[path]):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{getattr(node, 'name', 'lambda')}:{node.lineno}({a.arg})"
                       for a in params if a.arg not in read]
    assert not unread, f"parameters never read: {unread}"
