"""Command-line driver: configuration parsing, run orchestration, and
bit-exact file I/O.

Config files are flat ``key = value`` text with optional ``[section]``
headers (organizational only; keys are global) and ``#`` comments.
Command-line ``key=value`` tokens override file values.  Every run echoes
its resolved configuration into the output directory so the run can be
reproduced from the echo alone.

Dump format: flat little-endian float64 payload plus a JSON sidecar
(``<path>.json``) describing the shape; reading verifies the payload size
and byte order.  Time series are CSV with a fixed 9-column header and 17
significant digits; optional diagnostics leave their cell empty when not
computed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, TextIO, Tuple

import numpy as np

from . import coupling, densest, lowdisc, pic, sampling, spectral
from .core import (DiagnosticsRecord, GriddedDensity, InitialCondition,
                   ParticleEnsemble, PhaseSpaceDomain, finite, whole_steps)


class ParseError(ValueError):
    """Malformed config text; message carries the line number and key."""


class ValidationError(ValueError):
    """One or more config invariants violated; message lists all of them."""


class FormatError(ValueError):
    """Dump payload inconsistent with its sidecar."""


CSV_HEADER = ("t", "segment", "field_energy", "kinetic_energy",
              "total_energy", "mass", "entropy", "star_disc", "hk_variation")

# each preset's changes to the RunConfig defaults, which are landau's
_SCENARIOS = {
    "landau": {},
    "linear_landau": {"epsilon": 0.01},
    "bump_on_tail": {"epsilon": 1e-3, "k": 0.3, "n_b": 0.1, "sigma_b": 0.3,
                     "v_b": 4.5, "v_min": -10.0, "v_max": 10.0},
}


@dataclass
class RunConfig:
    """Fully resolved run parameters."""

    scenario: str = "landau"
    solver: str = "spectral"
    epsilon: float = 0.5
    k: float = 0.5
    n_b: float = 0.0
    sigma_b: float = 1.0
    v_b: float = 0.0
    v_min: float = -6.5
    v_max: float = 6.5
    nx: int = 64
    nv: int = 64
    n_f: int = 32
    n_p: int = 10000
    dt: float = 0.05
    t_max: float = 50.0
    t0: Optional[float] = None
    n_pad: int = 32
    integrator: str = "ruth3"
    sequence: str = "sobol"
    seed: int = 0
    sobol_skip: int = 1
    sampling: str = "its"
    output_stride: int = 1
    dump_stride: int = 0
    star_disc_period: int = 0
    star_disc_window: str = "0,2,-1,1"
    star_disc_cap: int = 4000
    hk_period: int = 0
    outdir: str = "out"

    def initial_condition(self) -> InitialCondition:
        return InitialCondition(epsilon=self.epsilon, k=self.k, n_b=self.n_b,
                                sigma_b=self.sigma_b, v_b=self.v_b)

    def domain(self) -> PhaseSpaceDomain:
        return PhaseSpaceDomain(0.0, 2.0 * np.pi / self.k, self.v_min, self.v_max)

    def sequence_kind(self) -> lowdisc.SequenceKind:
        return _sequence_kind(self.sequence, {key: getattr(self, key)
                                              for key in _SEQUENCE_READS[self.sequence]})

    def integrator_kind(self) -> pic.IntegratorKind:
        return pic.IntegratorKind(self.integrator)

    def window(self) -> Tuple[float, float, float, float]:
        return _parse_window("star_disc_window", self.star_disc_window)


_KEY_TYPES = {f.name: float if f.name == "t0" else type(f.default)
              for f in dataclass_fields(RunConfig)}

# The keys a run of each solver reads: its branch of _run reads them
# directly or through the RunConfig methods, and parse_config reads
# `scenario` for the preset.  Every key rule derives from this table.
_EVERY_RUN = frozenset({"scenario", "solver", "epsilon", "k", "n_b", "sigma_b",
                        "v_b", "v_min", "v_max", "dt", "t_max", "output_stride",
                        "dump_stride", "outdir"})
_READS = {
    "spectral": _EVERY_RUN | {"nx", "nv", "hk_period"},
    "pic": _EVERY_RUN | {"n_f", "n_p", "integrator", "sequence", "sampling",
                         "star_disc_period", "star_disc_window", "star_disc_cap"},
    "coupled": _EVERY_RUN | {"nx", "nv", "n_f", "n_p", "t0", "n_pad",
                             "integrator", "sequence", "hk_period"},
}
# the key that picks the points of each sequence; `vpqmc sample` reads
# them too, and `vpqmc reconstruct` reads lam only by mode=interp
_SEQUENCE_READS = {"sobol": {"sobol_skip"}, "pseudorandom": {"seed"}}
_MODE_READS = {"osde": set(), "interp": {"lam"}}
# the least value of each numeric key of a run or a subcommand (cap is
# discrepancy's star_disc_cap, n is sample's n_p)
_LEAST = {"nx": 2, "nv": 2, "n_f": 4, "n_p": 1, "n_pad": 1, "output_stride": 1,
          "sobol_skip": 1, "seed": 0, "dump_stride": 0, "star_disc_period": 0,
          "star_disc_cap": 1, "hk_period": 0}
_LEAST.update(cap=_LEAST["star_disc_cap"], n=_LEAST["n_p"], lam=0)


def _sequence_kind(sequence: str, keys: dict) -> lowdisc.SequenceKind:
    """The points that ``sequence`` names; ``keys`` holds the values of
    the keys it reads (_SEQUENCE_READS[sequence]) and may hold others."""
    if sequence == "sobol":
        return lowdisc.Sobol(skip=keys["sobol_skip"])
    return lowdisc.PseudoRandom(seed=keys["seed"])


def _reads(cfg: RunConfig) -> frozenset:
    """The keys a run of cfg reads (all of them if its solver is unknown)."""
    reads = _READS.get(cfg.solver, frozenset(_KEY_TYPES))
    if "sequence" in reads:
        reads = reads | _SEQUENCE_READS.get(cfg.sequence, set())
    return reads


def _too_small(values: dict) -> List[str]:
    """A message for each key in ``values`` below its least value; None
    (a value the program picks, as for lam) is not checked."""
    return [f"{key} must be >= {least}" for key, least in _LEAST.items()
            if values.get(key) is not None and not values[key] >= least]


def _sobol_overrun(values: dict, n_key: str) -> List[str]:
    """A message if values[n_key] Sobol points after the first sobol_skip
    run past the points of the construction."""
    if values["sequence"] == "sobol" and (values["sobol_skip"] + values[n_key]
                                          > lowdisc.SOBOL_POINTS):
        return [f"sobol_skip + {n_key} must be <= {lowdisc.SOBOL_POINTS}"]
    return []


def _parse_window(key: str, text: str) -> Tuple[float, float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        parts = ()
    # a finite extent needs finite bounds: inf - x is inf, inf - inf nan
    if len(parts) != 4 or not (0 < parts[1] - parts[0] < np.inf
                               and 0 < parts[3] - parts[2] < np.inf):
        raise ParseError(f"{key} {text!r} needs four finite numbers x0,x1,v0,v1 "
                         "with x0 < x1, v0 < v1 and finite x1 - x0, v1 - v0")
    return parts  # type: ignore[return-value]


def _key_value(token: str, allowed: dict, where: str):
    """Split a ``key=value`` token, check the key against ``allowed`` (key ->
    type) and coerce the value; errors start with ``where``."""
    if "=" not in token:
        raise ParseError(f"{where}: expected key=value, got {token!r}")
    key, value = (part.strip() for part in token.split("=", 1))
    if key not in allowed:
        raise ParseError(f"{where}: unknown key '{key}'")
    try:
        return key, allowed[key](value)
    except ParseError:  # a value parser's own message
        raise
    except ValueError:
        raise ParseError(f"{where}: key '{key}': cannot parse {value!r} "
                         f"as {allowed[key].__name__}")


def parse_config(path: Optional[str] = None,
                 overrides: Optional[List[str]] = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides.

    Overrides are ``key=value`` tokens and win over file values; the
    scenario preset is applied first so explicit keys can refine it.
    """
    explicit = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}")
        except UnicodeDecodeError as exc:
            raise ParseError(f"config {path} is not UTF-8 text: {exc}") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line and not (line.startswith("[") and line.endswith("]")):
                key, value = _key_value(line, _KEY_TYPES, f"{path}:{lineno}")
                explicit[key] = value
    for token in overrides or []:
        key, value = _key_value(token, _KEY_TYPES, "override")
        explicit[key] = value

    cfg = RunConfig()
    scenario = explicit.get("scenario", cfg.scenario)
    if scenario in _SCENARIOS:
        cfg = replace(cfg, scenario=scenario, **_SCENARIOS[scenario])
    elif scenario != "custom":
        raise ValidationError(f"unknown scenario '{scenario}'")
    cfg = replace(cfg, **explicit)
    _validate(cfg, explicit)
    return cfg


def _rule_problems(build) -> list:
    """The problems that ``build()`` raises as a ValueError, or none."""
    try:
        build()
    except ValueError as exc:
        return [str(exc)]
    return []


def _validate(cfg: RunConfig, explicit) -> None:
    """Check cfg; ``explicit`` holds the keys set in the file or overrides,
    which must all be keys the run reads."""
    problems = []
    if cfg.solver not in _READS:
        problems.append(f"solver '{cfg.solver}' not in spectral|pic|coupled")
    if not cfg.dt > 0:
        problems.append("dt must be > 0")
    if not cfg.t_max > 0:
        problems.append("t_max must be > 0")
    elif cfg.dt > 0:
        try:
            whole_steps(cfg.t_max, cfg.dt)
        except ValueError:
            problems.append("t_max must be a whole number (>= 1) of dt steps")
    # the physics; the domain divides by k, so it is built only after the
    # initial condition passes, and both before the ITS velocity window
    physics = _rule_problems(cfg.initial_condition) or _rule_problems(cfg.domain)
    if not physics and cfg.solver == "pic" and cfg.sampling == "its":
        physics = _rule_problems(lambda: sampling._velocity_components(
            cfg.initial_condition(), cfg.domain()))
    problems += physics
    problems += _too_small(vars(cfg))
    reads = _reads(cfg)
    if "sobol_skip" in reads:
        problems += _sobol_overrun(vars(cfg), "n_p")
    if cfg.solver == "coupled":
        if cfg.t0 is None:
            problems.append("coupled runs require t0")
        elif not (0 < cfg.t0 < cfg.t_max):
            problems.append("t0 must lie in (0, t_max)")
        elif cfg.dt > 0:
            try:
                whole_steps(cfg.t0, cfg.dt)
                whole_steps(cfg.t_max - cfg.t0, cfg.dt)
            except ValueError:
                problems.append("t0 and t_max - t0 must be whole numbers "
                                "(>= 1) of dt steps")
    if cfg.integrator not in {k.value for k in pic.IntegratorKind}:
        problems.append(f"integrator '{cfg.integrator}' unknown")
    if cfg.sequence not in _SEQUENCE_READS:
        problems.append(f"sequence '{cfg.sequence}' not in sobol|pseudorandom")
    if cfg.sampling not in ("its", "uniform"):
        problems.append(f"sampling '{cfg.sampling}' not in its|uniform")
    unread = [f.name for f in dataclass_fields(RunConfig)
              if f.name in explicit and f.name not in reads]
    if unread:
        run = f"solver={cfg.solver}"
        if "sequence" in reads:
            run += f" sequence={cfg.sequence}"
        problems.append(f"{', '.join(unread)} not read by {run}")
    try:
        cfg.window()
    except ParseError as exc:
        problems.append(str(exc))
    if problems:
        raise ValidationError("; ".join(problems))


def echo_config(cfg: RunConfig, path: Path) -> None:
    """Write every key the run reads, so the echo parses back to cfg."""
    reads = _reads(cfg)
    path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                            for f in dataclass_fields(RunConfig) if f.name in reads))


# ---------------------------------------------------------------------------
# dumps and time series

def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def write_timeseries(fh: TextIO, rows: List[Tuple[str, DiagnosticsRecord]],
                     header: bool = False) -> None:
    """CSV writer onto an open text handle: fixed header, '.' decimal, 17
    significant digits.

    Writes the header first when ``header`` is set, then one line per row,
    and flushes, so a run that streams each row as it is emitted keeps the
    rows written before a later failure.
    """
    lines = [",".join(CSV_HEADER)] if header else []
    for segment, r in rows:
        lines.append(",".join([
            _fmt(r.t), segment, _fmt(r.field_energy), _fmt(r.kinetic_energy),
            _fmt(r.total_energy), _fmt(r.total_mass), _fmt(r.entropy),
            _fmt(r.star_disc), _fmt(r.hk_variation)]))
    fh.write("".join(line + "\n" for line in lines))
    fh.flush()


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_grid_dump(path, density: GriddedDensity, t: float) -> None:
    payload = np.ascontiguousarray(density.values, dtype="<f8")
    Path(path).write_bytes(payload.tobytes())
    sidecar = {"kind": "grid", "nx": density.nx, "nv": density.nv,
               "domain": asdict(density.domain), "t": t,
               "dtype": "<f8", "layout": "row-major"}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=1) + "\n")


def write_particle_dump(path, ensemble: ParticleEnsemble,
                        domain: PhaseSpaceDomain, t: float) -> None:
    # one column at a time, so no copy of the whole payload is built
    with open(path, "wb") as fh:
        for col in (ensemble.x, ensemble.v, ensemble.f_like, ensemble.g_like):
            fh.write(np.ascontiguousarray(col, dtype="<f8"))
    sidecar = {"kind": "particles", "n_p": ensemble.n_p,
               "domain": asdict(domain), "t": t,
               "columns": ["x", "v", "f_like", "g_like"],
               "dtype": "<f8", "layout": "columns"}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=1) + "\n")


# the size keys of each dump kind with their least values, and the bounds
# of a sidecar's domain
_SIZE_KEYS = {"grid": {"nx": 2, "nv": 2}, "particles": {"n_p": 0}}
_BOUNDS = tuple(f.name for f in dataclass_fields(PhaseSpaceDomain))


def _sidecar_problems(meta: dict) -> List[str]:
    """One message per missing, ill-typed or out-of-range field of a
    sidecar object; a JSON number loads as an int or a float (a bool is
    neither type).  An unknown kind has no size keys; read_dump reports it."""
    sizes = _SIZE_KEYS.get(meta.get("kind"), {})
    problems = [f"sidecar lacks '{key}'" for key in ("kind", "domain", "t", *sizes)
                if key not in meta]
    for key, least in sizes.items():
        if key in meta and not (type(meta[key]) is int and meta[key] >= 0):
            problems.append(f"sidecar '{key}' must be a nonnegative integer, "
                            f"got {meta[key]!r}")
        elif key in meta and meta[key] < least:
            problems.append(f"sidecar '{key}' must be >= {least}, got {meta[key]}")
    domain = meta.get("domain")
    if "domain" in meta and not (
            isinstance(domain, dict) and sorted(domain) == sorted(_BOUNDS)
            and all(type(bound) in (int, float) for bound in domain.values())):
        problems.append(f"sidecar 'domain' must hold exactly the numbers "
                        f"{', '.join(_BOUNDS)}, got {domain!r}")
    elif "domain" in meta:  # JSON's Infinity and NaN load as floats
        problems += [f"sidecar 'domain': {problem}"
                     for problem in _rule_problems(lambda: PhaseSpaceDomain(**domain))]
    if "t" in meta and type(meta["t"]) not in (int, float):
        problems.append(f"sidecar 't' must be a number, got {meta['t']!r}")
    elif "t" in meta and not finite(meta["t"]):  # JSON's Infinity, NaN, 1e400
        problems.append(f"sidecar 't' must be finite, got {meta['t']!r}")
    return problems


def _sidecar_text(sidecar: Path) -> str:
    """A sidecar's text; FormatError if it is missing or not UTF-8, which
    JSON text must be."""
    if not sidecar.exists():
        raise FormatError(f"missing sidecar {sidecar}")
    try:
        return sidecar.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"sidecar {sidecar} is not valid JSON: {exc}") from None


def read_dump(path):
    """Read a dump; returns ('grid', GriddedDensity, t) or
    ('particles', ParticleEnsemble, domain, t).  A sidecar that is not a
    JSON object, lacks a field or holds one of the wrong type or out of
    range raises FormatError naming each such field."""
    sidecar_file = _sidecar_path(path)
    text = _sidecar_text(sidecar_file)
    try:
        meta = json.loads(text)
    except ValueError as exc:
        raise FormatError(f"sidecar {sidecar_file} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"sidecar {sidecar_file} must be a JSON object")
    if meta.get("dtype") != "<f8":
        raise FormatError(f"unsupported dtype {meta.get('dtype')!r}")
    problems = _sidecar_problems(meta)
    if problems:
        raise FormatError("; ".join(problems))
    payload = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    domain = PhaseSpaceDomain(**meta["domain"])
    if meta["kind"] == "grid":
        n = meta["nx"] * meta["nv"]
        if payload.size != n:
            raise FormatError(f"payload has {payload.size} values, sidecar says {n}")
        values = payload.reshape(meta["nx"], meta["nv"]).copy()
        return "grid", GriddedDensity(domain, values), float(meta["t"])
    if meta["kind"] == "particles":
        n = meta["n_p"]
        if payload.size != 4 * n:
            raise FormatError(f"payload has {payload.size} values, sidecar says {4 * n}")
        cols = payload.reshape(4, n)
        ensemble = ParticleEnsemble(x=cols[0].copy(), v=cols[1].copy(),
                                    f_like=cols[2].copy(), g_like=cols[3].copy())
        return "particles", ensemble, domain, float(meta["t"])
    raise FormatError(f"unknown dump kind {meta.get('kind')!r}")


# ---------------------------------------------------------------------------
# run orchestration

def _spectral_state_from_grid(density: GriddedDensity, t: float) -> spectral.SpectralState:
    # drop the duplicated v wrap node of the package grid convention
    return spectral.SpectralState(density.domain, density.values[:, :-1].copy(), t)


def _run(cfg: RunConfig) -> Path:
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, outdir / "config.echo.cfg")
    with open(outdir / "timeseries.csv", "w") as timeseries:
        write_timeseries(timeseries, [], header=True)
        _solve(cfg, outdir, timeseries)
    return outdir


def _solve(cfg: RunConfig, outdir: Path, timeseries: TextIO) -> None:
    ic, domain = cfg.initial_condition(), cfg.domain()

    emitted = {"n": 0}

    def on_record(rec, carrier):
        # stream the row; dump every dump_stride-th emitted record (0 disables)
        spectral_record = isinstance(carrier, spectral.SpectralState)
        write_timeseries(timeseries, [("spectral" if spectral_record else "pic", rec)])
        n = emitted["n"]
        emitted["n"] += 1
        if cfg.dump_stride < 1 or n % cfg.dump_stride != 0:
            return
        # the record index keeps apart records whose times agree to 5 decimals
        stamp = f"t{rec.t:012.5f}_r{n:06d}"
        if spectral_record:
            write_grid_dump(outdir / f"state_{stamp}.grid",
                            spectral.zero_pad(carrier, 1), rec.t)
        else:
            write_particle_dump(outdir / f"particles_{stamp}.dump", carrier,
                                domain, rec.t)

    if cfg.solver == "spectral":
        _, state = spectral.run_spectral(
            ic, domain, cfg.nx, cfg.nv, cfg.dt, cfg.t_max,
            out_stride=cfg.output_stride, hk_period=cfg.hk_period,
            on_record=on_record)
        write_grid_dump(outdir / "final_state.grid",
                        spectral.zero_pad(state, 1), state.t)
        return
    if cfg.solver == "pic":
        draw = (sampling.uniform_sample if cfg.sampling == "uniform"
                else sampling.its_tensor_product)
        # no name holds the pairs, so they are freed before the run starts
        ensemble = draw(ic, lowdisc.generate_pairs(cfg.sequence_kind(), cfg.n_p), domain)
        solver = pic.SplinePoissonSolver.build(domain.x_min, domain.length, cfg.n_f)
        coupling.run_pic(
            ensemble, solver, cfg.integrator_kind(), cfg.dt, 0.0, cfg.t_max,
            out_stride=cfg.output_stride,
            star_disc_period=cfg.star_disc_period,
            star_disc_window=cfg.window(), star_disc_cap=cfg.star_disc_cap,
            on_record=on_record)
    else:
        _, ensemble = coupling.run_coupled(
            ic, domain, cfg.nx, cfg.nv, cfg.dt, cfg.t_max,
            t0=cfg.t0, n_p=cfg.n_p, n_pad=cfg.n_pad, n_f=cfg.n_f,
            sequence=cfg.sequence_kind(), kind=cfg.integrator_kind(),
            out_stride=cfg.output_stride, hk_period=cfg.hk_period,
            on_record=on_record)
    write_particle_dump(outdir / "final_particles.dump", ensemble, domain, cfg.t_max)


# ---------------------------------------------------------------------------
# CLI

def _cmd_run(args: List[str]) -> None:
    config_path = None
    rest = []
    it = iter(args)
    for a in it:
        if a == "--config":
            if config_path is not None:
                raise ParseError("--config given more than once")
            config_path = next(it, None)
            if config_path is None:
                raise ParseError("--config requires a path")
        else:
            rest.append(a)
    outdir = _run(parse_config(config_path, rest))
    print(f"run complete: {outdir/'timeseries.csv'}")


def _cmd_sample(grid, out, n, sequence, **keys) -> None:
    density, t = grid
    ensemble = sampling.sample_gridded_density(density, _sequence_kind(sequence, keys), n)
    write_particle_dump(out, ensemble, density.domain, t)
    print(f"sampled {n} markers -> {out}")


def _cmd_reconstruct(particles, out, mode, nx, nv, lam) -> None:
    ensemble, domain, t = particles
    basis = densest.LinearSplineBasis2D(domain, nx, nv)
    if mode == "osde":
        est = densest.osde_linear(ensemble, basis)
    else:
        est = densest.bilinear_ridge_fit(ensemble.x, ensemble.v, ensemble.f_like,
                                         basis, lam=lam)
    write_grid_dump(out, est, t)
    print(f"reconstructed ({mode}) -> {out}")


def _cmd_discrepancy(particles, window, cap) -> None:
    ensemble, _, t = particles
    res = lowdisc.star_discrepancy_in_window(ensemble, window, cap=cap)
    print(f"t,n_in_window,d_star\n{_fmt(t)},{res.n_in_window},{_fmt(res.d_star)}")


def _cmd_hk(grid) -> None:
    state = _spectral_state_from_grid(*grid)
    print(f"t,hk_variation\n{_fmt(state.t)},{_fmt(spectral.hk_variation(state))}")


def _cmd_dump_info(path) -> None:
    print(_sidecar_text(_sidecar_path(path)).strip())


_DUMP_KINDS = {"GRID_DUMP": "grid", "PARTICLE_DUMP": "particles"}


class _Subcommand(NamedTuple):
    """A subcommand's positional ``args`` (dumps of ``_DUMP_KINDS``, or
    paths), its keys as key -> (parser, usage name, default), the
    ``variant`` key whose value picks the keys read (value -> the keys
    only it reads), and a ``check`` of the values beyond ``_LEAST``.  A
    ``raw`` subcommand's handler takes its argument list unparsed."""

    summary: str
    handler: Callable
    args: Tuple[str, ...] = ()
    keys: Dict[str, tuple] = {}
    variant: Optional[Tuple[str, dict]] = None
    check: Optional[Callable[[dict], List[str]]] = None
    raw: Optional[str] = None


_SUBCOMMANDS = {
    "run": _Subcommand("execute a configured run", _cmd_run,
                       raw="[--config FILE] [key=value ...]"),
    "sample": _Subcommand(
        "draw markers from a grid dump", _cmd_sample, ("GRID_DUMP", "OUT"),
        {"n": (int, "N", 0),  # no default: 0 fails the bound of n
         "sequence": (str, "|".join(_SEQUENCE_READS), RunConfig.sequence),
         "seed": (int, "N", RunConfig.seed),
         "sobol_skip": (int, "N", RunConfig.sobol_skip)},
        ("sequence", _SEQUENCE_READS), partial(_sobol_overrun, n_key="n")),
    "reconstruct": _Subcommand(
        "grid estimate from a particle dump", _cmd_reconstruct, ("PARTICLE_DUMP", "OUT"),
        {"mode": (str, "|".join(_MODE_READS), "osde"), "nx": (int, "N", 64),
         "nv": (int, "N", 64), "lam": (float, "X", None)},
        ("mode", _MODE_READS)),
    "discrepancy": _Subcommand(
        "star discrepancy of a particle dump", _cmd_discrepancy, ("PARTICLE_DUMP",),
        {"window": (partial(_parse_window, "window"), "x0,x1,v0,v1", RunConfig().window()),
         "cap": (int, "N", RunConfig.star_disc_cap)}),
    "hk-variation": _Subcommand("Hardy-Krause variation of a grid dump", _cmd_hk,
                                ("GRID_DUMP",)),
    "dump-info": _Subcommand("print the sidecar of a dump", _cmd_dump_info, ("DUMP",)),
}

_USAGE = "usage: vpqmc <subcommand> [arguments]\n\nsubcommands:\n"
for _name, _sub in _SUBCOMMANDS.items():
    # a key whose default fails its bound is one the user must give
    _words = [_sub.raw] if _sub.raw else list(_sub.args) + [
        f"{key}={usage}" if _too_small({key: default}) else f"[{key}={usage}]"
        for key, (_, usage, default) in _sub.keys.items()]
    _head = "  " + " ".join([_name, *_words])
    _USAGE += f"{_head:<44}" if len(_head) < 44 else f"{_head}\n{'':44}"
    _USAGE += _sub.summary + "\n"
_USAGE += "exit status: 0 ok, 1 runtime error, 2 usage error\n"


def _dispatch(name: str, sub: _Subcommand, argv: List[str]) -> None:
    """Check argv against the table, then call the handler with the dumps
    read (without their kind) or paths, and every key by name."""
    if sub.raw:
        return sub.handler(argv)
    if len(argv) < len(sub.args):
        raise ParseError(f"{name} needs {' '.join(sub.args)}")
    parsers = {key: parse for key, (parse, _, _) in sub.keys.items()}
    given = dict(_key_value(token, parsers, "argument") for token in argv[len(sub.args):])
    values = {key: default for key, (_, _, default) in sub.keys.items()} | given
    problems = _too_small(values)
    if sub.variant:
        key, reads = sub.variant
        choice = values[key]
        if choice not in reads:  # then which keys it reads is unknown
            problems.append(f"{key} '{choice}' not in {'|'.join(reads)}")
        else:
            unread = [k for k in given if k in set().union(*reads.values()) - reads[choice]]
            if unread:
                problems.append(f"{', '.join(unread)} not read by {key}={choice}")
    if sub.check:
        problems += sub.check(values)
    if problems:
        raise ValidationError("; ".join(problems))
    inputs = list(argv[:len(sub.args)])
    for i, kind in enumerate(map(_DUMP_KINDS.get, sub.args)):
        if kind is not None:
            found, *dump = read_dump(inputs[i])
            if found != kind:
                raise FormatError(f"{name} expects a {kind} dump")
            inputs[i] = dump
    sub.handler(*inputs, **values)


def cli_main(argv: List[str]) -> int:
    """Entry point; returns the process exit status (0 ok, 1 error, 2 usage)."""
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    name, *rest = argv
    try:
        if name not in _SUBCOMMANDS:
            print(_USAGE, end="", file=sys.stderr)
            raise ParseError(f"unknown subcommand '{name}'")
        _dispatch(name, _SUBCOMMANDS[name], rest)
        return 0
    except Exception as exc:
        print("error: " + json.dumps({"type": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        # usage errors exit 2; runtime failures (I/O, numerics, format) 1
        return 2 if isinstance(exc, (ParseError, ValidationError)) else 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
