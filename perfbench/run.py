"""End-to-end benchmark of `vpqmc run` on four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout root is the parent of this directory and
the program is imported from its ``src/``.  Load is a closed loop with one
client: one run at a time, each in a fresh child interpreter started with
the BLAS thread variables pinned to 1 (a single-threaded baseline).  All
of them run on one CPU.

--trace 0  times untraced runs for about --seconds seconds (at least two)
           and reports the end-to-end metrics: wall_adj_s (median time
           inside cli_main), setup_s (median time for fresh interpreters
           to import vpqmc.driver and parse the workload config; two are
           timed before, between and after the runs), peak_rss_mb and
           energy_drift_rel.  Both times are adjusted to a reference host
           speed: host_probe.py runs beside them on the same CPU, and each
           time is scaled by PROBE_REF_S over the mean CPU time of the
           probe's job during it.  The raw times are in the details line.
--trace 1  makes one untraced and two traced runs of the same seed and
           reports the per-layer metrics of the traced runs (times are
           their median); the two traced runs must agree on every count.

Every run's output is checked (see ``check_run``); a failed check counts
as a failed run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the environment, input sizes, sample quartiles and any problems.
See DESIGN.md for why each workload exists and what each metric predicts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
PROBE = HERE / "host_probe.py"
REFERENCE = HERE / "reference.json"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# The seed picks sobol_skip = 1 + (seed % SKIP_SLOTS) * SKIP_STRIDE, so the
# default seed 0 reproduces the plain commands and every slot's points are
# disjoint from the others' (the largest workload has 2e5 markers).
SKIP_SLOTS = 16
SKIP_STRIDE = 1 << 18

RUN_SECONDS = 20.0                  # the default --seconds, as in BENCHMARK.json
SETUP_PER_GAP = 2                   # setup samples before, between and after runs
MIN_RUNS = 2
DEADLINE_S = 170.0
# The CPU time of host_probe.py's job at the reference host speed (its
# typical value on the 2-core machine the benchmark was written on), and
# how far around a timed interval the probe's samples are taken.
PROBE_REF_S = 0.0035
PROBE_PAD_S = 1.0
CSV_HEADER = ["t", "segment", "field_energy", "kinetic_energy", "total_energy",
              "mass", "entropy", "star_disc", "hk_variation"]
NUMERIC_COLUMNS = CSV_HEADER[2:]


@dataclass(frozen=True)
class Workload:
    """One `vpqmc run` command plus the checks its output must pass."""

    args: tuple
    seeded: bool                     # the seed picks sobol_skip
    segments: tuple                  # (segment name, row count) in order
    inputs: dict                     # markers, grid, steps
    working_set: dict                # computed bytes of the main arrays
    constant_mass: bool = False      # bitwise, volume-preserving PIC
    max_energy_drift: Optional[float] = None
    max_mass_drift: Optional[float] = None
    star_disc_every: int = 0
    hk_every: int = 0
    handoff_n_p: int = 0             # > 0: check |FE jump| <= 5/sqrt(n_p)
    notes: dict = field(default_factory=dict)


F8_BYTES = 8
WORKLOADS = {
    "landau_pic_ruth3": Workload(
        args=("scenario=landau", "solver=pic", "integrator=ruth3", "n_p=100000",
              "n_f=32", "dt=0.05", "t_max=8", "sequence=sobol"),
        seeded=True,
        segments=(("pic", 161),),
        inputs={"markers": 100000, "pic_cells": 32, "pic_steps": 160},
        working_set={"marker_arrays": 100000 * 4 * F8_BYTES,
                     "deposit_temporaries": 100000 * 8 * F8_BYTES},
        constant_mass=True,
        max_energy_drift=1e-2,
    ),
    "landau_qmc_seuler": Workload(
        args=("scenario=landau", "v_min=-8", "v_max=8", "solver=pic",
              "sampling=uniform", "integrator=seuler", "n_p=200000", "n_f=32",
              "dt=0.3", "t_max=15", "star_disc_period=3", "sequence=sobol"),
        seeded=True,
        segments=(("pic", 51),),
        inputs={"markers": 200000, "pic_cells": 32, "pic_steps": 50,
                "star_disc_cap": 4000},
        working_set={"marker_arrays": 200000 * 4 * F8_BYTES,
                     "deposit_temporaries": 200000 * 8 * F8_BYTES,
                     "star_disc_corner_tables": 2 * 4000 * 8},
        constant_mass=True,
        star_disc_every=3,
    ),
    "bump_on_tail_coupled": Workload(
        args=("scenario=bump_on_tail", "solver=coupled", "nx=32", "nv=32",
              "dt=0.1", "t_max=50", "t0=35", "n_p=100000", "n_pad=32", "n_f=16",
              "sequence=sobol"),
        seeded=True,
        segments=(("spectral", 351), ("pic", 151)),
        inputs={"markers": 100000, "spectral_grid": [32, 32], "handoff_grid": [1024, 1025],
                "spectral_steps": 350, "pic_cells": 16, "pic_steps": 150},
        working_set={"spectral_grid": 32 * 32 * F8_BYTES,
                     "handoff_fine_grid": 1024 * 1025 * F8_BYTES,
                     "conditional_table_per_chunk": (1 << 14) * 1025 * F8_BYTES,
                     "marker_arrays": 100000 * 4 * F8_BYTES},
        handoff_n_p=100000,
    ),
    "landau_spectral": Workload(
        args=("scenario=landau", "solver=spectral", "nx=128", "nv=128", "dt=0.05",
              "t_max=50", "hk_period=10"),
        seeded=False,
        segments=(("spectral", 1001),),
        inputs={"spectral_grid": [128, 128], "spectral_steps": 1000},
        working_set={"grid_real": 128 * 128 * F8_BYTES, "grid_complex": 128 * 128 * 2 * F8_BYTES},
        max_mass_drift=1e-12,
        hk_every=10,
        notes={"seed": "no effect: the input is a deterministic grid"},
    ),
}


def sobol_skip(seed: int) -> int:
    return 1 + (seed % SKIP_SLOTS) * SKIP_STRIDE


def run_args(w: Workload, seed: int) -> list:
    return list(w.args) + ([f"sobol_skip={sobol_skip(seed)}"] if w.seeded else [])


def reference_key(w: Workload, seed: int) -> str:
    return str(sobol_skip(seed)) if w.seeded else "unseeded"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# output checks

def _num(cell: str) -> Optional[float]:
    return float(cell) if cell != "" else None


def _close(a: float, b: float, tol: dict) -> bool:
    return abs(a - b) <= tol["abs"] + tol["rel"] * abs(b)


def check_run(w: Workload, csv_text: str, reference: Optional[dict]):
    """Check one run's time series; returns (problems, stats).

    stats holds energy_drift_rel (largest |E(t)/E(t_seg_start) - 1| over
    the rows of each segment) and, for the coupled run, handoff_jump_rel.
    """
    problems = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != CSV_HEADER:
        return ["timeseries.csv header is not the 9-column header"], {}
    rows = rows[1:]
    if any(len(r) != len(CSV_HEADER) for r in rows):
        return ["a row does not have 9 cells"], {}
    expected = [name for name, n in w.segments for _ in range(n)]
    if [r[1] for r in rows] != expected:
        return [f"segments/row count: got {len(rows)} rows, expected "
                f"{'+'.join(f'{n} {s}' for s, n in w.segments)}"], {}

    stats = {"energy_drift_rel": 0.0}
    start = 0
    seg_rows = {}
    for name, n in w.segments:
        seg = rows[start:start + n]
        seg_rows[name] = seg
        start += n
        e0 = float(seg[0][4])
        drift = max(abs(float(r[4]) / e0 - 1.0) for r in seg)
        stats["energy_drift_rel"] = max(stats["energy_drift_rel"], drift)
        masses = [float(r[5]) for r in seg]
        if w.constant_mass and len(set(masses)) != 1:
            problems.append(f"{name}: mass column is not bitwise constant")
        if w.max_mass_drift is not None:
            mdrift = max(abs(m / masses[0] - 1.0) for m in masses)
            if mdrift > w.max_mass_drift:
                problems.append(f"{name}: mass drift {mdrift:.3e} > {w.max_mass_drift:g}")
    if w.max_energy_drift is not None and stats["energy_drift_rel"] > w.max_energy_drift:
        problems.append(f"energy_drift_rel {stats['energy_drift_rel']:.3e} > "
                        f"{w.max_energy_drift:g}")

    if w.star_disc_every:
        for i, r in enumerate(rows):
            d = _num(r[7])
            if (i % w.star_disc_every == 0) != (d is not None):
                problems.append(f"row {i}: star_disc filled/empty out of period")
                break
            if d is not None and not 0.0 < d <= 1.0:
                problems.append(f"row {i}: star_disc {d!r} not in (0, 1]")
                break
    if w.hk_every:
        for i, r in enumerate(rows):
            if (i % w.hk_every == 0) != (r[8] != ""):
                problems.append(f"row {i}: hk_variation filled/empty out of period")
                break

    if w.handoff_n_p:
        spec_last, pic_first = seg_rows["spectral"][-1], seg_rows["pic"][0]
        if spec_last[0] != pic_first[0]:
            problems.append("the segments do not meet at one switch time")
        fe_spec, fe_pic = float(spec_last[2]), float(pic_first[2])
        stats["handoff_jump_rel"] = abs(fe_pic - fe_spec) / fe_spec
        bound = 5.0 / math.sqrt(w.handoff_n_p)
        if stats["handoff_jump_rel"] > bound:
            problems.append(f"handoff_jump_rel {stats['handoff_jump_rel']:.3e} > {bound:.3e}")

    if reference is None:
        problems.append("no reference final row for this workload and seed")
    else:
        want, tol = reference["row"], reference["tolerance"]
        got = rows[-1]
        if got[:2] != want[:2]:
            problems.append(f"final row t/segment {got[:2]} != reference {want[:2]}")
        for col, a, b in zip(NUMERIC_COLUMNS, got[2:], want[2:]):
            if (a == "") != (b == ""):
                problems.append(f"final {col}: filled/empty differs from reference")
            elif a and not _close(float(a), float(b), tol):
                problems.append(f"final {col} {a} differs from reference {b}")
    return problems, stats


def load_reference(name: str, w: Workload, seed: int) -> Optional[dict]:
    data = json.loads(REFERENCE.read_text())
    row = data["rows"].get(name, {}).get(reference_key(w, seed))
    return None if row is None else {"row": row, "tolerance": data["tolerance"]}


# ---------------------------------------------------------------------------
# child runs

class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


class HostProbe:
    """host_probe.py, running beside the timed runs until ``stop``."""

    def __init__(self):
        self.samples = []
        self.proc = subprocess.Popen([sys.executable, str(PROBE)], env=child_env(),
                                     cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()  # "ready"; an empty line if it failed to start

    def stop(self):
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.samples = [tuple(map(float, pair.split(":"))) for pair in out.split()]

    def cpu_s(self, start: float, seconds: float) -> Optional[float]:
        """Mean CPU time of the probe's job around [start, start + seconds]."""
        cpu = [c for t, c in self.samples
               if start - PROBE_PAD_S <= t <= start + seconds + PROBE_PAD_S]
        return statistics.mean(cpu) if cpu else None


def measure_setup(args: list, deadline: Deadline, times: list) -> int:
    """Append (start, seconds) of SETUP_PER_GAP fresh interpreters that
    import vpqmc.driver and parse args; returns how many of them failed."""
    code = "import sys; from vpqmc.driver import parse_config; parse_config(None, sys.argv[1:])"
    failed = 0
    for _ in range(SETUP_PER_GAP):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", code, *args], env=child_env(),
                                  cwd=ROOT, capture_output=True,
                                  timeout=max(1.0, deadline.left()))
        except subprocess.TimeoutExpired:
            return failed + 1
        if proc.returncode != 0:
            failed += 1
        else:
            times.append((start, time.perf_counter() - start))
    return failed


def run_once(name: str, w: Workload, seed: int, trace: bool,
             reference: Optional[dict], deadline: Deadline) -> dict:
    """One child run; returns its record with 'problems' (empty if it passed)."""
    outdir = WORK / name
    shutil.rmtree(outdir, ignore_errors=True)
    result_file = WORK / "result.json"
    result_file.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(result_file), "1" if trace else "0", "--",
            *run_args(w, seed), f"outdir={outdir}"]
    record = {"trace": trace, "problems": []}
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline.left()))
    except subprocess.TimeoutExpired:
        record["problems"].append("timed out")
        record["timed_out"] = True
        return record
    if proc.returncode != 0 or not result_file.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        record["problems"].append(f"exit status {proc.returncode}: {tail[0]}")
        return record
    result = json.loads(result_file.read_text())
    csv_path = outdir / "timeseries.csv"
    if not csv_path.exists():
        record["problems"].append("no timeseries.csv")
        return record
    problems, stats = check_run(w, csv_path.read_text(), reference)
    record["problems"] += problems
    record.update(stats)
    record["start"] = result["start"]
    record["wall_s"] = result["wall_s"]
    record["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
    record["versions"] = result["versions"]
    if trace:
        record["layers"] = layer_metrics(result, outdir)
    return record


# ---------------------------------------------------------------------------
# per-layer metrics from a traced child

# (module, attribute, span name, extra) of every traced function: the
# layers' public entry points.  child.py wraps each one; ``extra`` names a
# child.py function that reads a size or count from the call.  Several
# functions may share one span name.
TRACED = [
    ("driver", "cli_main", "driver.cli_main", None),
    ("driver", "parse_config", "driver.parse_config", None),
    ("driver", "echo_config", "driver.io", None),
    ("driver", "write_timeseries", "driver.io", None),
    ("driver", "write_grid_dump", "driver.io", None),
    ("driver", "write_particle_dump", "driver.io", None),
    ("coupling", "run_coupled", "coupling.run_coupled", None),
    ("coupling", "handoff", "coupling.handoff", None),
    ("coupling", "run_pic", "coupling.run_pic", None),
    ("pic", "push", "pic.push", None),
    ("pic", "deposit_rhs", "pic.deposit_rhs", "n_markers"),
    ("pic", "solve_poisson_fem", "pic.solve_poisson_fem", None),
    ("pic", "eval_E", "pic.eval_E", "n_points"),
    ("pic", "field_energy", "pic.diagnostics", None),
    ("pic", "kinetic_energy", "pic.diagnostics", None),
    ("pic", "total_mass", "pic.diagnostics", None),
    ("pic", "discrete_entropy", "pic.diagnostics", "entropy"),
    ("sampling", "build_sampler", "sampling.build_sampler", None),
    ("sampling", "rosenblatt_sample", "sampling.rosenblatt_sample", "n_pairs"),
    ("sampling", "sample_marginal_x", "sampling.sample_marginal_x", None),
    ("sampling", "sample_conditional_v", "sampling.sample_conditional_v", None),
    ("sampling", "its_tensor_product", "sampling.its_tensor_product", None),
    ("sampling", "uniform_sample", "sampling.uniform_sample", None),
    ("spectral", "run_spectral", "spectral.run_spectral", None),
    ("spectral", "step_order3", "spectral.step_order3", "n_cells"),
    ("spectral", "kick_v", "spectral.kick_v", None),
    ("spectral", "advect_x", "spectral.advect_x", None),
    ("spectral", "poisson_fourier", "spectral.poisson_fourier", None),
    ("spectral", "apply_filter", "spectral.apply_filter", None),
    ("spectral", "diagnostics", "spectral.diagnostics", None),
    ("spectral", "hk_variation", "spectral.hk_variation", None),
    ("spectral", "zero_pad", "spectral.zero_pad", None),
    ("lowdisc", "generate_pairs", "lowdisc.generate_pairs", None),
    ("lowdisc", "star_discrepancy_in_window", "lowdisc.star_discrepancy_in_window", "window"),
    ("lowdisc", "star_discrepancy", "lowdisc.star_discrepancy", None),
    ("core", "GriddedDensity.bilinear_at", "core.bilinear_at", None),
    ("core", "normalize_to_sampling_density", "core.normalize_to_sampling_density", None),
]
SPANS = list(dict.fromkeys(span for _, _, span, _ in TRACED))
MODULES = list(dict.fromkeys(module for module, _, _, _ in TRACED))

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{s}.{k}", u, "lower") for s in SPANS
     for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("pic.deposit_rhs.markers_per_s", "1/s", "higher"),
       ("pic.eval_E.markers_per_s", "1/s", "higher"),
       ("pic.deposits_per_push", "count", "lower"),
       ("pic.entropy_skipped_frac", "ratio", "lower"),
       ("sampling.rosenblatt_sample.markers_per_s", "1/s", "higher"),
       ("spectral.step_order3.cell_steps_per_s", "1/s", "higher"),
       ("spectral.nonneutral_warnings", "count", "lower"),
       ("lowdisc.star_disc_points", "count", "lower"),
       ("lowdisc.window_used_frac", "ratio", "higher"),
       ("driver.io_bytes", "B", "lower")]
    + [(f"{m}.self_frac", "ratio", "lower") for m in MODULES]
    + [("trace.untraced_wall_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
)

# Counts that two traced runs of one workload and seed must repeat exactly
COUNTS = ([f"{s}.calls" for s in SPANS]
          + ["pic.deposits_per_push", "lowdisc.star_disc_points",
             "lowdisc.window_used_frac", "pic.entropy_skipped_frac",
             "spectral.nonneutral_warnings"])


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(result: dict, outdir: Path) -> dict:
    spans = result["spans"]
    wall = result["wall_s"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "under_push": 0, "sum": {}, "max": {}}
    get = lambda name: spans.get(name, empty)  # noqa: E731
    out = {}
    for name in SPANS:
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = get(name)[key]

    dep, ev = get("pic.deposit_rhs"), get("pic.eval_E")
    out["pic.deposit_rhs.markers_per_s"] = _rate(dep["sum"].get("markers", 0), dep["s"])
    out["pic.eval_E.markers_per_s"] = _rate(ev["sum"].get("markers", 0), ev["s"])
    out["pic.deposits_per_push"] = _rate(dep["under_push"], get("pic.push")["calls"])
    out["pic.entropy_skipped_frac"] = get("pic.diagnostics")["max"].get("skipped_fraction", 0.0)
    ros = get("sampling.rosenblatt_sample")
    out["sampling.rosenblatt_sample.markers_per_s"] = _rate(ros["sum"].get("markers", 0), ros["s"])
    step = get("spectral.step_order3")
    out["spectral.step_order3.cell_steps_per_s"] = _rate(step["sum"].get("cells", 0), step["s"])
    out["spectral.nonneutral_warnings"] = result["nonneutral_warnings"]
    win = get("lowdisc.star_discrepancy_in_window")["sum"]
    out["lowdisc.star_disc_points"] = win.get("n_used", 0)
    out["lowdisc.window_used_frac"] = _rate(win.get("n_used", 0), win.get("n_in_window", 0))
    out["driver.io_bytes"] = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    for module in MODULES:
        self_s = sum(out[f"{s}.self_s"] for s in SPANS if s.startswith(module + "."))
        out[f"{module}.self_frac"] = self_s / wall
    return out


# ---------------------------------------------------------------------------
# environment

def environment(versions: dict) -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model, "caches": caches,
            **versions, "child_thread_env": THREAD_ENV}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


# ---------------------------------------------------------------------------

END_TO_END = [("wall_adj_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("energy_drift_rel", "ratio")]
# (name, unit) of the unadjusted times and the probe's job, in the details
RAW = [("wall_raw_s", "s"), ("setup_raw_s", "s"), ("probe_cpu_s", "s")]


def measure(name: str, seed: int, trace: bool, seconds: float = RUN_SECONDS):
    """Run one workload; returns (result line dict, details dict).

    The metrics of the result line are empty when no run produced numbers;
    the attempted and failed counts are always there.
    """
    w = WORKLOADS[name]
    deadline = Deadline(DEADLINE_S)
    reference = load_reference(name, w, seed)
    WORK.mkdir(exist_ok=True)
    runs, setup = [], []
    setup_failed = 0
    cpus = os.sched_getaffinity(0)
    # one CPU for the runs and the probe, so that the probe sees the speed
    # the runs get (the speeds of two CPUs of a shared host barely correlate)
    os.sched_setaffinity(0, {min(cpus)})
    probe = HostProbe()
    try:
        if trace:
            for traced in (False, True, True):
                runs.append(run_once(name, w, seed, traced, reference, deadline))
                if runs[-1].get("timed_out"):
                    break
        else:
            # Setup samples are taken before, between and after the runs, so
            # that their median spans the run rather than one moment of the
            # shared host's speed.
            start = time.perf_counter()
            while True:
                setup_failed += measure_setup(run_args(w, seed), deadline, setup)
                runs.append(run_once(name, w, seed, False, reference, deadline))
                elapsed = time.perf_counter() - start
                if runs[-1].get("timed_out"):
                    break
                if len(runs) >= MIN_RUNS and elapsed * (1 + 1 / len(runs)) > seconds:
                    setup_failed += measure_setup(run_args(w, seed), deadline, setup)
                    break
    finally:
        probe.stop()
        shutil.rmtree(WORK, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    good = [r for r in runs if "wall_s" in r]
    for r in good:
        cpu = probe.cpu_s(r["start"], r["wall_s"])
        if cpu is None:
            r["problems"].append("no host probe sample during the run")
        else:
            r["wall_adj_s"] = r["wall_s"] * PROBE_REF_S / cpu
    setup_adj = []
    for start, took in setup:
        cpu = probe.cpu_s(start, took)
        if cpu is None:
            setup_failed += 1
        else:
            setup_adj.append(took * PROBE_REF_S / cpu)
    if setup_failed:
        # counts as one more failed attempt
        runs.append({"trace": False, "problems": [
            f"{setup_failed} setup interpreter(s) failed, timed out or had no "
            "host probe sample"]})
    details = {
        "workload": name, "seed": seed, "trace": int(trace),
        "sobol_skip": sobol_skip(seed) if w.seeded else None,
        "command": "vpqmc run " + " ".join(run_args(w, seed)),
        "inputs": w.inputs, "working_set_computed_bytes": w.working_set,
        "notes": w.notes,
    }
    if good:
        details["environment"] = environment(good[0]["versions"])
    metrics = {}
    if trace:
        timed = [r for r in good if "wall_adj_s" in r]
        traced = [r["layers"] for r in timed if r["trace"]]
        untraced = [r for r in timed if not r["trace"]]
        mismatched = [k for k in COUNTS if any(t[k] != traced[0][k] for t in traced)]
        if len(traced) < 2 or mismatched:
            runs[-1]["problems"].append(f"traced runs disagree on counts: {mismatched}"
                                        if mismatched else "fewer than two traced runs")
        if traced and untraced:
            values = {k: traced[0][k] if k in COUNTS
                      else statistics.median(t[k] for t in traced) for k in traced[0]}
            values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
            # the overhead compares adjusted times, so host speed cancels
            values["trace.overhead_frac"] = (
                statistics.median(r["wall_adj_s"] for r in timed if r["trace"])
                / statistics.median(r["wall_adj_s"] for r in untraced) - 1)
            for metric, unit, _ in PER_LAYER:
                metrics[metric] = {"value": values[metric], "unit": unit}
    else:
        samples = {"wall_adj_s": [r["wall_adj_s"] for r in good if "wall_adj_s" in r],
                   "setup_s": setup_adj,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in good],
                   "energy_drift_rel": [r["energy_drift_rel"] for r in good if
                                        "energy_drift_rel" in r],
                   "wall_raw_s": [r["wall_s"] for r in good],
                   "setup_raw_s": [took for _, took in setup],
                   "probe_cpu_s": [cpu for _, cpu in probe.samples]}
        details["samples"] = {k: quartiles(v) for k, v in samples.items() if v}
        if w.handoff_n_p:
            details["handoff_jump_rel"] = [r.get("handoff_jump_rel") for r in good]
        if all(samples[metric] for metric, _ in END_TO_END):
            for metric, unit in END_TO_END:
                metrics[metric] = {"value": statistics.median(samples[metric]),
                                   "unit": unit}
    failed = sum(bool(r["problems"]) for r in runs)
    details.update(attempted=len(runs), failed=failed, failed_frac=failed / len(runs),
                   problems=[p for r in runs for p in r["problems"]])
    line = {"correct": failed == 0 and bool(metrics), "attempted": len(runs),
            "failed": failed, "metrics": metrics}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its children (see measure's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "vpqmc" / "driver.py").is_file() or not REFERENCE.is_file():
        print(f"error: no vpqmc source under {SRC} (or no {REFERENCE.name}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    line, details = measure(args.workload, args.seed, bool(args.trace), args.seconds)
    print(json.dumps(details))
    print(json.dumps(line))
    if not line["metrics"]:
        print("error: no run of this workload produced numbers", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
