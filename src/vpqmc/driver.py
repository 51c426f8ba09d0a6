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
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import coupling, densest, lowdisc, pic, sampling, spectral
from .core import (DiagnosticsRecord, GriddedDensity, InitialCondition,
                   ParticleEnsemble, PhaseSpaceDomain)


class ParseError(ValueError):
    """Malformed config text; message carries the line number and key."""


class ValidationError(ValueError):
    """One or more config invariants violated; message lists all of them."""


class FormatError(ValueError):
    """Dump payload inconsistent with its sidecar."""


CSV_HEADER = ("t", "segment", "field_energy", "kinetic_energy",
              "total_energy", "mass", "entropy", "star_disc", "hk_variation")

_SCENARIOS = {
    # epsilon, k, n_b, sigma_b, v_b, v_min, v_max
    "landau": (0.5, 0.5, 0.0, 1.0, 0.0, -6.5, 6.5),
    "linear_landau": (0.01, 0.5, 0.0, 1.0, 0.0, -6.5, 6.5),
    "bump_on_tail": (1e-3, 0.3, 0.1, 0.3, 4.5, -10.0, 10.0),
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
        if self.sequence == "sobol":
            return lowdisc.Sobol(skip=self.sobol_skip)
        return lowdisc.PseudoRandom(seed=self.seed)

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
# the key that picks the points of each sequence
_SEQUENCE_READS = {"sobol": {"sobol_skip"}, "pseudorandom": {"seed"}}


def _reads(cfg: RunConfig) -> frozenset:
    """The keys a run of cfg reads (all of them if its solver is unknown)."""
    reads = _READS.get(cfg.solver, frozenset(_KEY_TYPES))
    if "sequence" in reads:
        reads = reads | _SEQUENCE_READS.get(cfg.sequence, set())
    return reads


def _parse_window(key: str, text: str) -> Tuple[float, float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 4:
        raise ParseError(f"{key} {text!r} needs four comma-separated numbers")
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
            text = Path(path).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}")
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
        eps, k, n_b, sigma_b, v_b, v_lo, v_hi = _SCENARIOS[scenario]
        cfg = replace(cfg, scenario=scenario, epsilon=eps, k=k, n_b=n_b,
                      sigma_b=sigma_b, v_b=v_b, v_min=v_lo, v_max=v_hi)
    elif scenario != "custom":
        raise ValidationError(f"unknown scenario '{scenario}'")
    cfg = replace(cfg, **explicit)
    _validate(cfg, explicit)
    return cfg


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
    if not cfg.k > 0:
        problems.append("k must be > 0")
    if not cfg.sigma_b > 0:
        problems.append("sigma_b must be > 0")
    if not (0 <= cfg.n_b < 1):
        problems.append("n_b must lie in [0, 1)")
    if not cfg.v_max > cfg.v_min:
        problems.append("v_max must exceed v_min")
    for name, least in (("nx", 2), ("nv", 2), ("n_f", 2), ("n_p", 1), ("n_pad", 1),
                        ("output_stride", 1), ("sobol_skip", 1), ("seed", 0),
                        ("dump_stride", 0), ("star_disc_period", 0), ("hk_period", 0)):
        if getattr(cfg, name) < least:
            problems.append(f"{name} must be >= {least}")
    if cfg.solver == "coupled":
        if cfg.t0 is None:
            problems.append("coupled runs require t0")
        elif not (0 < cfg.t0 < cfg.t_max):
            problems.append("t0 must lie in (0, t_max)")
    if cfg.integrator not in {k.value for k in pic.IntegratorKind}:
        problems.append(f"integrator '{cfg.integrator}' unknown")
    if cfg.sequence not in _SEQUENCE_READS:
        problems.append(f"sequence '{cfg.sequence}' not in sobol|pseudorandom")
    if cfg.sampling not in ("its", "uniform"):
        problems.append(f"sampling '{cfg.sampling}' not in its|uniform")
    reads = _reads(cfg)
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


def write_timeseries(path, rows: List[Tuple[str, DiagnosticsRecord]]) -> None:
    """CSV writer: fixed header, '.' decimal, 17 significant digits."""
    lines = [",".join(CSV_HEADER)]
    for segment, r in rows:
        lines.append(",".join([
            _fmt(r.t), segment, _fmt(r.field_energy), _fmt(r.kinetic_energy),
            _fmt(r.total_energy), _fmt(r.total_mass), _fmt(r.entropy),
            _fmt(r.star_disc), _fmt(r.hk_variation)]))
    Path(path).write_text("\n".join(lines) + "\n")


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _domain_dict(domain: PhaseSpaceDomain) -> dict:
    return {"x_min": domain.x_min, "x_max": domain.x_max,
            "v_min": domain.v_min, "v_max": domain.v_max}


def _domain_from(d: dict) -> PhaseSpaceDomain:
    return PhaseSpaceDomain(d["x_min"], d["x_max"], d["v_min"], d["v_max"])


def write_grid_dump(path, density: GriddedDensity, t: float) -> None:
    payload = np.ascontiguousarray(density.values, dtype="<f8")
    Path(path).write_bytes(payload.tobytes())
    sidecar = {"kind": "grid", "nx": density.nx, "nv": density.nv,
               "domain": _domain_dict(density.domain), "t": t,
               "dtype": "<f8", "layout": "row-major"}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=1) + "\n")


def write_particle_dump(path, ensemble: ParticleEnsemble,
                        domain: PhaseSpaceDomain, t: float) -> None:
    # one column at a time, so no copy of the whole payload is built
    with open(path, "wb") as fh:
        for col in (ensemble.x, ensemble.v, ensemble.f_like, ensemble.g_like):
            fh.write(np.ascontiguousarray(col, dtype="<f8"))
    sidecar = {"kind": "particles", "n_p": ensemble.n_p,
               "domain": _domain_dict(domain), "t": t,
               "columns": ["x", "v", "f_like", "g_like"],
               "dtype": "<f8", "layout": "columns"}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=1) + "\n")


def read_dump(path):
    """Read a dump; returns ('grid', GriddedDensity, t) or
    ('particles', ParticleEnsemble, domain, t)."""
    sidecar_file = _sidecar_path(path)
    if not sidecar_file.exists():
        raise FormatError(f"missing sidecar {sidecar_file}")
    meta = json.loads(sidecar_file.read_text())
    if meta.get("dtype") != "<f8":
        raise FormatError(f"unsupported dtype {meta.get('dtype')!r}")
    payload = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    domain = _domain_from(meta["domain"])
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


def _initial_ensemble(cfg: RunConfig) -> ParticleEnsemble:
    pairs = lowdisc.generate_pairs(cfg.sequence_kind(), cfg.n_p)
    ic, domain = cfg.initial_condition(), cfg.domain()
    if cfg.sampling == "uniform":
        return sampling.uniform_sample(ic, pairs, domain)
    return sampling.its_tensor_product(ic, pairs, domain)


def _run(cfg: RunConfig) -> Path:
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, outdir / "config.echo.cfg")
    ic, domain = cfg.initial_condition(), cfg.domain()

    emitted = {"n": 0}

    def periodic_dump(rec, carrier):
        # every dump_stride-th emitted record; 0 disables
        n = emitted["n"]
        emitted["n"] += 1
        if cfg.dump_stride < 1 or n % cfg.dump_stride != 0:
            return
        stamp = f"t{rec.t:012.5f}"
        if isinstance(carrier, spectral.SpectralState):
            write_grid_dump(outdir / f"state_{stamp}.grid",
                            spectral.zero_pad(carrier, 1), rec.t)
        else:
            write_particle_dump(outdir / f"particles_{stamp}.dump", carrier,
                                domain, rec.t)

    if cfg.solver == "spectral":
        records, state = spectral.run_spectral(
            ic, domain, cfg.nx, cfg.nv, cfg.dt, cfg.t_max,
            out_stride=cfg.output_stride, hk_period=cfg.hk_period,
            on_record=periodic_dump)
        rows = [("spectral", r) for r in records]
        write_grid_dump(outdir / "final_state.grid",
                        spectral.zero_pad(state, 1), state.t)
    elif cfg.solver == "pic":
        ensemble = _initial_ensemble(cfg)
        solver = pic.SplinePoissonSolver.build(domain.x_min, domain.length, cfg.n_f)
        records = coupling.run_pic(
            ensemble, solver, cfg.integrator_kind(), cfg.dt, 0.0, cfg.t_max,
            out_stride=cfg.output_stride,
            star_disc_period=cfg.star_disc_period,
            star_disc_window=cfg.window(), star_disc_cap=cfg.star_disc_cap,
            on_record=periodic_dump)
        rows = [("pic", r) for r in records]
        write_particle_dump(outdir / "final_particles.dump", ensemble,
                            domain, cfg.t_max)
    else:
        cfgh = coupling.HandoffConfig(t0=cfg.t0, n_p=cfg.n_p, n_pad=cfg.n_pad,
                                      sequence=cfg.sequence_kind(), n_f=cfg.n_f)
        result = coupling.run_coupled(
            ic, domain, cfg.nx, cfg.nv, cfg.dt, cfg.t_max, cfgh,
            kind=cfg.integrator_kind(), out_stride=cfg.output_stride,
            hk_period=cfg.hk_period,
            on_spectral_record=periodic_dump, on_pic_record=periodic_dump)
        rows = result.rows
        write_particle_dump(outdir / "final_particles.dump", result.ensemble,
                            domain, cfg.t_max)
    write_timeseries(outdir / "timeseries.csv", rows)
    return outdir


# ---------------------------------------------------------------------------
# CLI

_USAGE = """\
usage: vpqmc <subcommand> [arguments]

subcommands:
  run [--config FILE] [key=value ...]       execute a configured run
  sample DUMP OUT n=N [sequence=...] [seed=N] [sobol_skip=N]
                                            draw markers from a grid dump
  reconstruct DUMP OUT mode=osde|interp nx=N nv=N [lam=X]
                                            grid estimate from a particle dump
  discrepancy DUMP [window=x0,x1,v0,v1] [cap=N]
                                            star discrepancy of a particle dump
  hk-variation DUMP                         Hardy-Krause variation of a grid dump
  dump-info DUMP                            print the sidecar of a dump
exit status: 0 ok, 1 runtime error, 2 usage error
"""


def _error_line(exc: Exception) -> str:
    return "error: " + json.dumps({"type": type(exc).__name__, "message": str(exc)})


def _cmd_run(args: List[str]) -> int:
    config_path = None
    rest = []
    it = iter(args)
    for a in it:
        if a == "--config":
            config_path = next(it, None)
            if config_path is None:
                raise ParseError("--config requires a path")
        else:
            rest.append(a)
    cfg = parse_config(config_path, rest)
    outdir = _run(cfg)
    print(f"run complete: {outdir/'timeseries.csv'}")
    return 0


def _cmd_sample(args: List[str]) -> int:
    if len(args) < 2:
        raise ParseError("sample needs DUMP and OUT paths")
    src, dst, *rest = args
    allowed = {"n": int, "sequence": str, "seed": int, "sobol_skip": int}
    kv = dict(_key_value(token, allowed, "argument") for token in rest)
    n = kv.pop("n", 0)
    if n < 1:
        raise ParseError("sample requires n >= 1")
    # as in _validate, a key the chosen sequence never reads is an error
    cfg = RunConfig(**kv)
    if cfg.sequence not in _SEQUENCE_READS:
        raise ValidationError(f"sequence '{cfg.sequence}' not in sobol|pseudorandom")
    unread = [key for key in kv
              if key != "sequence" and key not in _SEQUENCE_READS[cfg.sequence]]
    if unread:
        raise ValidationError(f"{', '.join(unread)} not read by sequence={cfg.sequence}")
    result = read_dump(src)
    if result[0] != "grid":
        raise FormatError("sample expects a grid dump")
    _, density, t = result
    ensemble = sampling.sample_gridded_density(density, cfg.sequence_kind(), n)
    write_particle_dump(dst, ensemble, density.domain, t)
    print(f"sampled {n} markers -> {dst}")
    return 0


def _cmd_reconstruct(args: List[str]) -> int:
    if len(args) < 2:
        raise ParseError("reconstruct needs DUMP and OUT paths")
    src, dst, *rest = args
    allowed = {"mode": str, "nx": int, "nv": int, "lam": float}
    kv = dict(_key_value(token, allowed, "argument") for token in rest)
    mode = kv.get("mode", "osde")
    if mode not in ("osde", "interp"):
        raise ParseError("mode must be osde or interp")
    result = read_dump(src)
    if result[0] != "particles":
        raise FormatError("reconstruct expects a particle dump")
    _, ensemble, domain, t = result
    basis = densest.LinearSplineBasis2D(domain, kv.get("nx", 64), kv.get("nv", 64))
    if mode == "osde":
        out = densest.osde_linear(ensemble, basis, use_weights=True)
    else:
        out = densest.bilinear_ridge_fit(ensemble.x, ensemble.v, ensemble.f_like,
                                         basis, lam=kv.get("lam"))
    write_grid_dump(dst, out, t)
    print(f"reconstructed ({mode}) -> {dst}")
    return 0


def _cmd_discrepancy(args: List[str]) -> int:
    if len(args) < 1:
        raise ParseError("discrepancy needs a particle dump")
    src, *rest = args
    kv = dict(_key_value(token, {"window": str, "cap": int}, "argument")
              for token in rest)
    window = _parse_window("window", kv.get("window", "0,2,-1,1"))
    result = read_dump(src)
    if result[0] != "particles":
        raise FormatError("discrepancy expects a particle dump")
    _, ensemble, domain, t = result
    res = lowdisc.star_discrepancy_in_window(ensemble, window,
                                             cap=kv.get("cap", 4000))
    print("t,n_in_window,d_star")
    print(f"{_fmt(t)},{res.n_in_window},{_fmt(res.d_star)}")
    return 0


def _cmd_hk(args: List[str]) -> int:
    if len(args) != 1:
        raise ParseError("hk-variation needs a grid dump")
    result = read_dump(args[0])
    if result[0] != "grid":
        raise FormatError("hk-variation expects a grid dump")
    _, density, t = result
    state = _spectral_state_from_grid(density, t)
    print("t,hk_variation")
    print(f"{_fmt(t)},{_fmt(spectral.hk_variation(state))}")
    return 0


def _cmd_dump_info(args: List[str]) -> int:
    if len(args) != 1:
        raise ParseError("dump-info needs a dump path")
    sidecar = _sidecar_path(args[0])
    if not sidecar.exists():
        raise FormatError(f"missing sidecar {sidecar}")
    print(sidecar.read_text().strip())
    return 0


_SUBCOMMANDS = {
    "run": _cmd_run,
    "sample": _cmd_sample,
    "reconstruct": _cmd_reconstruct,
    "discrepancy": _cmd_discrepancy,
    "hk-variation": _cmd_hk,
    "dump-info": _cmd_dump_info,
}


def cli_main(argv: List[str]) -> int:
    """Entry point; returns the process exit status (0 ok, 1 error, 2 usage)."""
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    name, *rest = argv
    handler = _SUBCOMMANDS.get(name)
    if handler is None:
        print(_USAGE, end="", file=sys.stderr)
        print(_error_line(ParseError(f"unknown subcommand '{name}'")), file=sys.stderr)
        return 2
    try:
        return handler(rest)
    except (ParseError, ValidationError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, numerics, format
        print(_error_line(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
