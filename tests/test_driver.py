import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harness import wrap_x
from vpqmc.core import GriddedDensity, ParticleEnsemble, PhaseSpaceDomain
from vpqmc.core import DiagnosticsRecord
from vpqmc import driver, pic, sampling
from vpqmc.driver import (CSV_HEADER, FormatError, ParseError, RunConfig,
                          ValidationError, cli_main, parse_config, read_dump,
                          write_grid_dump, write_particle_dump,
                          write_timeseries)


# --- config parsing -----------------------------------------------------------

def test_preset_landau_domain():
    cfg = parse_config(None, ["scenario=landau", "solver=spectral", "nx=64",
                              "nv=64", "dt=0.01", "t_max=50"])
    assert cfg.epsilon == 0.5 and cfg.k == 0.5 and cfg.n_b == 0.0
    assert cfg.domain().length == pytest.approx(4 * np.pi)
    assert cfg.nx == 64 and cfg.dt == 0.01


def test_preset_bump_on_tail():
    cfg = parse_config(None, ["scenario=bump_on_tail"])
    assert cfg.k == 0.3 and cfg.sigma_b == 0.3 and cfg.n_b == 0.1
    assert cfg.v_b == 4.5 and cfg.v_max == 10.0


def test_preset_linear_landau():
    cfg = parse_config(None, ["scenario=linear_landau"])
    assert cfg.epsilon == 0.01 and cfg.k == 0.5 and cfg.v_max == 6.5


def test_zero_dt_rejected():
    with pytest.raises(ValidationError):
        parse_config(None, ["dt=0"])


def test_negative_seed_rejected(tmp_path):
    overrides = ["solver=pic", "sequence=pseudorandom", "seed=-1"]
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        parse_config(None, overrides)
    assert cli_main(["run", *overrides, f"outdir={tmp_path / 'run'}"]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cap", [0, -3])
def test_star_disc_cap_below_one_rejected(tmp_path, capsys, cap):
    # cap=0 used to divide by zero after writing the echo, and cap=-3 ran
    # with a negative stride, taking the D* of about three markers
    outdir = tmp_path / "run"
    assert cli_main(["run", "solver=pic", "n_p=50", "star_disc_period=1",
                     f"star_disc_cap={cap}", f"outdir={outdir}"]) == 2
    assert "star_disc_cap must be >= 1" in capsys.readouterr().err
    assert not outdir.exists()


def test_too_few_spline_cells_rejected(tmp_path, capsys):
    # the cubic basis needs 4 cells: fewer is a usage error, caught before
    # the echo or the CSV header is written
    outdir = tmp_path / "run"
    assert cli_main(["run", "solver=pic", "n_p=50", "n_f=3", "t_max=0.1",
                     f"outdir={outdir}"]) == 2
    assert "n_f must be >= 4" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("args,message", [
    (["solver=spectral", "nx=8", "nv=8", "dt=0.3", "t_max=1.0"], "t_max must be"),
    (["dt=0.5", "t_max=0.2"], "t_max must be"),
    (["solver=coupled", "dt=0.1", "t_max=1.0", "t0=0.25"], "t0 and t_max - t0"),
    (["dt=0.1", "t_max=inf"], "t_max must be"),
])
def test_partial_last_step_rejected(tmp_path, capsys, args, message):
    # a run steps round(t_max / dt) times: it would stop short of t_max,
    # or take no step at all, so the run is refused before writing
    outdir = tmp_path / "run"
    assert cli_main(["run", *args, f"outdir={outdir}"]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("args,message", [
    (["solver=spectral", "epsilon=nan"], "epsilon must be finite"),
    (["solver=spectral", "v_max=inf"], "v_max must be finite"),
    (["solver=pic", "epsilon=inf"], "epsilon must be finite"),
    (["solver=pic", "scenario=bump_on_tail", "sigma_b=inf"], "sigma_b must be finite"),
    (["solver=pic", "scenario=bump_on_tail", "v_b=nan"], "v_b must be finite"),
    (["solver=pic", "k=inf"], "k must be finite"),
    (["solver=pic", "k=0"], "k must be > 0"),
    (["solver=pic", "k=1e-310"], "k is too small: 2*pi/k overflows"),
    (["solver=spectral", "v_min=1", "v_max=-1"], "v_max must exceed v_min"),
    (["solver=pic", "epsilon=1.5"], "epsilon must lie in [-1, 1]"),
    (["solver=spectral", "epsilon=-1.5"], "epsilon must lie in [-1, 1]"),
])
def test_physics_rules_are_usage_errors(tmp_path, capsys, args, message):
    # a non-finite physics key used to run to the end with NaN rows (or,
    # for k=inf, fail with exit 1 after writing the echo)
    outdir = tmp_path / "run"
    assert cli_main(["run", *args, "dt=0.1", "t_max=0.2", f"outdir={outdir}"]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("args,message", [
    (["v_min=40", "v_max=50"],
     "the bulk Gaussian N(0, 1^2) has no mass in [v_min, v_max] = [40, 50]"),
    (["scenario=custom", "n_b=0.5", "v_b=20"],
     "the bump Gaussian N(20, 1^2) has no mass in [v_min, v_max] = [-6.5, 6.5]"),
])
def test_its_velocity_window_rule_is_usage_error(tmp_path, capsys, args, message):
    # NaN rows (bulk) or all-zero rows with a RuntimeWarning (bump) used to
    # be written with exit 0
    outdir = tmp_path / "run"
    assert cli_main(["run", "solver=pic", "sampling=its", *args, "n_p=64", "n_f=8",
                     "dt=0.1", "t_max=0.2", f"outdir={outdir}"]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()
    # uniform sampling divides by no Gaussian mass
    assert parse_config(None, ["solver=pic", "sampling=uniform", *args])


def test_every_broken_physics_rule_is_reported():
    with pytest.raises(ValidationError) as info:
        parse_config(None, ["k=0", "sigma_b=0", "n_b=1", "epsilon=nan"])
    assert str(info.value) == ("epsilon must be finite; k must be > 0; "
                               "sigma_b must be > 0; n_b must lie in [0, 1)")
    with pytest.raises(ValidationError) as info:
        parse_config(None, ["v_min=nan", "v_max=inf"])
    assert str(info.value) == "v_min must be finite; v_max must be finite"


def test_whole_steps_within_rounding_accepted():
    # 0.3 / 0.1 is 2.9999999999999996 in binary floating point
    assert parse_config(None, ["dt=0.1", "t_max=0.3"]).t_max == 0.3
    assert parse_config(None, ["solver=coupled", "dt=0.1", "t_max=0.7",
                               "t0=0.3"]).t0 == 0.3


def test_coupled_requires_t0():
    with pytest.raises(ValidationError, match="t0"):
        parse_config(None, ["solver=coupled"])


def test_unknown_key_rejected_with_line(tmp_path):
    cfg_file = tmp_path / "broken.cfg"
    cfg_file.write_text("dt = 0.1\nnot_a_key = 3\n")
    with pytest.raises(ParseError, match="broken.cfg:2"):
        parse_config(str(cfg_file))


def test_file_plus_override_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\n[run]\nscenario = landau\ndt = 0.1\nnx = 32\n")
    cfg = parse_config(str(cfg_file), ["dt=0.2"])
    assert cfg.dt == 0.2
    assert cfg.nx == 32


def test_validation_lists_every_problem():
    with pytest.raises(ValidationError) as err:
        parse_config(None, ["dt=0", "t_max=0", "output_stride=0"])
    msg = str(err.value)
    assert "dt" in msg and "t_max" in msg and "output_stride" in msg


def test_bad_value_type():
    with pytest.raises(ParseError):
        parse_config(None, ["nx=abc"])


@pytest.mark.parametrize("overrides", [
    ["solver=coupled", "t0=1", "star_disc_period=1"],
    ["solver=spectral", "star_disc_period=1"],
    ["solver=pic", "hk_period=1"],
])
def test_diagnostic_period_the_solver_never_computes_rejected(overrides):
    with pytest.raises(ValidationError, match="period"):
        parse_config(None, overrides)


def test_diagnostic_periods_the_solver_computes_accepted():
    assert parse_config(None, ["solver=pic", "star_disc_period=1"]).star_disc_period == 1
    assert parse_config(None, ["solver=spectral", "hk_period=1"]).hk_period == 1
    assert parse_config(None, ["solver=coupled", "t0=1", "hk_period=1"]).hk_period == 1


@pytest.mark.parametrize("overrides,key", [
    (["solver=coupled", "t0=1", "sampling=uniform"], "sampling"),
    (["sequence=sobol", "seed=3"], "seed"),
    (["solver=pic", "sequence=pseudorandom", "sobol_skip=3"], "sobol_skip"),
])
def test_key_the_run_never_uses_rejected(overrides, key):
    with pytest.raises(ValidationError, match=key):
        parse_config(None, overrides)


def test_keys_the_run_uses_accepted():
    assert parse_config(None, ["solver=pic", "sampling=uniform"]).sampling == "uniform"
    assert parse_config(None, ["solver=pic", "sequence=pseudorandom",
                               "seed=3"]).seed == 3
    assert parse_config(None, ["solver=pic", "sobol_skip=5"]).sobol_skip == 5


@pytest.mark.parametrize("key", ["n_p=5", "sampling=uniform", "integrator=euler",
                                 "n_f=8", "t0=1", "n_pad=4", "sequence=sobol",
                                 "sobol_skip=3", "star_disc_cap=10",
                                 "star_disc_window=0,1,0,1"])
def test_spectral_rejects_particle_keys_set_explicitly(key, tmp_path):
    name = key.split("=")[0]
    with pytest.raises(ValidationError, match=name):
        parse_config(None, ["solver=spectral", key])
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(f"solver = spectral\n{key.replace('=', ' = ')}\n")
    with pytest.raises(ValidationError, match=name):
        parse_config(str(cfg_file))


def test_spectral_rejects_every_unused_key_at_once(capsys, tmp_path):
    overrides = ["solver=spectral", "sampling=uniform", "integrator=euler", "n_p=5"]
    with pytest.raises(ValidationError, match="n_p, integrator, sampling"):
        parse_config(None, overrides)
    outdir = tmp_path / "run"
    assert cli_main(["run", *overrides, f"outdir={outdir}"]) == 2
    assert not outdir.exists()
    assert "solver=spectral" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,unread", [
    (["solver=pic", "nx=5", "n_pad=3"], "nx, n_pad"),
    (["solver=coupled", "t0=1", "star_disc_cap=10"], "star_disc_cap"),
    # rejected even at the default value
    (["solver=pic", "hk_period=0"], "hk_period"),
    (["solver=coupled", "t0=1", "sampling=its"], "sampling"),
    (["solver=pic", "sequence=sobol", "seed=0"], "seed"),
    (["solver=pic", "sequence=pseudorandom", "sobol_skip=1"], "sobol_skip"),
], ids=["pic-nx-n_pad", "coupled-star_disc_cap", "pic-hk_period=0",
        "coupled-sampling=its", "sobol-seed=0", "pseudorandom-sobol_skip=1"])
def test_particle_runs_reject_keys_they_never_read(overrides, unread, tmp_path, capsys):
    with pytest.raises(ValidationError, match=f"{unread} not read by solver="):
        parse_config(None, overrides)
    outdir = tmp_path / "run"
    assert cli_main(["run", *overrides, f"outdir={outdir}"]) == 2
    assert not outdir.exists()
    assert unread in capsys.readouterr().err


_RECORDED_RUNS = {
    "spectral": ["solver=spectral", "nx=16", "nv=16"],
    "pic-sobol": ["solver=pic", "n_p=200", "n_f=8", "star_disc_period=1"],
    "pic-pseudorandom": ["solver=pic", "n_p=200", "n_f=8", "sequence=pseudorandom",
                         "seed=3"],
    "coupled": ["solver=coupled", "nx=16", "nv=16", "n_pad=2", "n_p=200", "n_f=8",
                "t0=0.1", "hk_period=1"],
}


@pytest.mark.parametrize("run", sorted(_RECORDED_RUNS))
def test_key_table_matches_what_the_run_reads(run, tmp_path, monkeypatch):
    # the RunConfig fields _run touches are exactly the keys the table
    # declares for the run, less `scenario` (read by parse_config)
    names = {f.name for f in dataclasses.fields(RunConfig)}
    seen = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if name in names:
                seen.add(name)
            return super().__getattribute__(name)

    cfg = parse_config(None, [*_RECORDED_RUNS[run], "dt=0.1", "t_max=0.2",
                              "dump_stride=1", f"outdir={tmp_path}"])
    monkeypatch.setattr(driver, "echo_config", lambda cfg, path: None)
    driver._run(Recording(**dataclasses.asdict(cfg)))
    reads = driver._reads(cfg)
    assert seen <= reads
    assert reads - seen <= {"scenario"}


_VALUES = {
    "scenario": st.sampled_from(["landau", "linear_landau", "bump_on_tail", "custom"]),
    "epsilon": st.floats(-1.0, 1.0),
    "k": st.floats(0.01, 10.0),
    "n_b": st.floats(0.0, 0.99),
    "sigma_b": st.floats(0.01, 10.0),
    "v_b": st.floats(-10.0, 10.0),
    "v_min": st.floats(-20.0, -0.5),
    "v_max": st.floats(0.5, 20.0),
    "nx": st.integers(2, 512),
    "nv": st.integers(2, 512),
    "n_f": st.integers(4, 512),
    "n_p": st.integers(1, 10 ** 7),
    # t_max and t0 must be whole numbers of dt steps, also at the defaults
    # (dt = 0.05, t_max = 50)
    "dt": st.integers(1, 10 ** 6).map(lambda n: 1.0 / n),
    "t_max": st.integers(20, 10 ** 4).map(float),
    "t0": st.integers(1, 19).map(float),
    "n_pad": st.integers(1, 64),
    "integrator": st.sampled_from(["euler", "euler2", "seuler", "midpoint", "ruth3"]),
    "seed": st.integers(0, 2 ** 63),
    # sobol_skip + n_p must stay within the 2**32 points of the Sobol construction
    "sobol_skip": st.integers(1, 2 ** 32 - 10 ** 7),
    "sampling": st.sampled_from(["its", "uniform"]),
    "output_stride": st.integers(1, 1000),
    "dump_stride": st.integers(0, 1000),
    "star_disc_period": st.integers(0, 1000),
    # two increasing pairs: a window must have positive extent
    "star_disc_window": st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2, unique=True).map(sorted),
        min_size=2, max_size=2).map(lambda xs: ",".join(map(repr, xs[0] + xs[1]))),
    "star_disc_cap": st.integers(1, 10 ** 6),
    "hk_period": st.integers(0, 1000),
    "outdir": st.text("abz09_-./", min_size=1, max_size=20),
}


@st.composite
def _explicit_keys(draw):
    solver = draw(st.sampled_from(["spectral", "pic", "coupled"]))
    reads = driver._READS[solver]
    required = {"solver": solver}
    if "sequence" in reads:
        required["sequence"] = draw(st.sampled_from(sorted(driver._SEQUENCE_READS)))
        reads = reads | driver._SEQUENCE_READS[required["sequence"]]
    if solver == "coupled":
        required["t0"] = draw(_VALUES["t0"])
    keys = draw(st.sets(st.sampled_from(sorted(reads - set(required)))))
    explicit = {**required, **{key: draw(_VALUES[key]) for key in sorted(keys)}}
    if solver == "pic" and explicit.get("sampling", "its") == "its":
        # ITS sampling rejects a velocity window in which a drawn Gaussian
        # has no mass; uniform sampling takes the same window
        cfg = parse_config(None, [f"{key}={value}" for key, value
                                  in {**explicit, "sampling": "uniform"}.items()])
        if driver._rule_problems(lambda: sampling._velocity_components(
                cfg.initial_condition(), cfg.domain())):
            explicit["sampling"] = "uniform"
    return explicit


@settings(max_examples=150, deadline=None)
@given(explicit=_explicit_keys())
def test_config_echo_round_trip(tmp_path_factory, explicit):
    cfg = parse_config(None, [f"{key}={value}" for key, value in explicit.items()])
    echo = tmp_path_factory.mktemp("echo") / "config.echo.cfg"
    driver.echo_config(cfg, echo)
    assert parse_config(str(echo)) == cfg
    echoed = {line.split(" = ")[0] for line in echo.read_text().splitlines()}
    assert echoed == driver._reads(cfg)


# --- dumps ---------------------------------------------------------------------

def test_grid_dump_round_trip(tmp_path):
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    g = GriddedDensity(dom, np.random.default_rng(0).random((7, 5)))
    path = tmp_path / "grid.bin"
    write_grid_dump(path, g, t=1.25)
    kind, back, t = read_dump(path)
    assert kind == "grid" and t == 1.25
    np.testing.assert_array_equal(back.values, g.values)
    assert back.domain == dom


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(n_p=st.integers(1, 300), x_min=_finite, length=st.floats(1e-3, 1e3),
       v_min=_finite, v_span=st.floats(1e-3, 1e3), t=_finite,
       seed=st.integers(0, 2 ** 32 - 1))
def test_particle_dump_round_trip(tmp_path_factory, n_p, x_min, length, v_min,
                                  v_span, t, seed):
    rng = np.random.default_rng(seed)
    dom = PhaseSpaceDomain(x_min, x_min + length, v_min, v_min + v_span)
    e = ParticleEnsemble(x=wrap_x(dom, rng.uniform(x_min, x_min + length, n_p)),
                         v=rng.uniform(dom.v_min, dom.v_max, n_p),
                         f_like=rng.standard_normal(n_p),  # signed, as after a handoff
                         g_like=rng.random(n_p) + 0.5)
    path = tmp_path_factory.mktemp("dump") / "parts.bin"
    write_particle_dump(path, e, dom, t=t)
    assert path.read_bytes() == np.concatenate(
        [e.x, e.v, e.f_like, e.g_like]).astype("<f8").tobytes()
    kind, back, dom2, t2 = read_dump(path)
    assert kind == "particles" and t2 == t and dom2 == dom
    for a, b in ((back.x, e.x), (back.v, e.v),
                 (back.f_like, e.f_like), (back.g_like, e.g_like)):
        np.testing.assert_array_equal(a, b)


def test_dump_payload_mismatch(tmp_path):
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    g = GriddedDensity(dom, np.ones((4, 4)))
    path = tmp_path / "grid.bin"
    write_grid_dump(path, g, t=0.0)
    payload = path.read_bytes()
    path.write_bytes(payload[:-8])
    with pytest.raises(FormatError):
        read_dump(path)


def test_dump_endianness_declared(tmp_path):
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    path = tmp_path / "grid.bin"
    write_grid_dump(path, GriddedDensity(dom, np.ones((4, 4))), t=0.0)
    meta = json.loads((tmp_path / "grid.bin.json").read_text())
    assert meta["dtype"] == "<f8"
    meta["dtype"] = ">f8"
    (tmp_path / "grid.bin.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        read_dump(path)


def test_timeseries_fixed_columns(tmp_path):
    rec = DiagnosticsRecord.make(t=0.5, field_energy=1.0, kinetic_energy=2.0,
                                 total_mass=3.0, entropy=-1.0)
    rec2 = DiagnosticsRecord.make(t=1.0, field_energy=1.0, kinetic_energy=2.0,
                                  total_mass=3.0, entropy=-1.0, star_disc=0.25)
    path = tmp_path / "ts.csv"
    with open(path, "w") as fh:
        write_timeseries(fh, [("spectral", rec)], header=True)
        write_timeseries(fh, [("pic", rec2)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(CSV_HEADER) == 9
    for line in lines[1:]:
        assert len(line.split(",")) == 9
    # optional cells empty when not computed
    assert lines[1].split(",")[7] == ""
    assert lines[2].split(",")[7] == "0.25"


# --- CLI -----------------------------------------------------------------------

def test_cli_run_deterministic(tmp_path, capsys):
    args = ["run", "scenario=landau", "solver=spectral", "nx=16", "nv=16",
            "dt=0.1", "t_max=0.5"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_main(args + [f"outdir={out1}"]) == 0
    assert cli_main(args + [f"outdir={out2}"]) == 0
    assert (out1 / "timeseries.csv").read_bytes() == \
        (out2 / "timeseries.csv").read_bytes()
    # echoed config reproduces the run
    assert cli_main(["run", "--config", str(out1 / "config.echo.cfg"),
                     f"outdir={tmp_path/'c'}"]) == 0
    assert (tmp_path / "c" / "timeseries.csv").read_bytes() == \
        (out1 / "timeseries.csv").read_bytes()


def test_failed_run_keeps_the_rows_emitted_before_it(tmp_path, monkeypatch):
    # a push that diverges at step N leaves the header and the N rows
    # emitted before it (t = 0 and steps 1..N-1), as a full run wrote them;
    # they are on disk already when the push fails, before the file closes
    args = ["run", "scenario=landau", "solver=pic", "integrator=midpoint", "n_p=300",
            "n_f=8", "dt=0.1", "t_max=1.0"]
    assert cli_main(args + [f"outdir={tmp_path / 'full'}"]) == 0
    full = (tmp_path / "full" / "timeseries.csv").read_text().splitlines()
    n_fail = 4
    csv = tmp_path / "failed" / "timeseries.csv"
    steps = {"n": 0}
    push = pic.push

    def diverging_push(*a, **kw):
        steps["n"] += 1
        if steps["n"] == n_fail:
            steps["on_disk"] = csv.read_text().splitlines()
            raise pic.FixedPointDiverged("stalled", 100, 1.0)
        push(*a, **kw)

    monkeypatch.setattr(pic, "push", diverging_push)
    assert cli_main(args + [f"outdir={tmp_path / 'failed'}"]) == 1
    assert steps["on_disk"] == full[:1 + n_fail]
    assert csv.read_text().splitlines() == full[:1 + n_fail]


def test_cli_pic_run_writes_particles(tmp_path):
    outdir = tmp_path / "picrun"
    rc = cli_main(["run", "scenario=landau", "solver=pic", "n_p=500",
                   "n_f=16", "dt=0.1", "t_max=0.3", f"outdir={outdir}"])
    assert rc == 0
    kind, e, dom, t = read_dump(outdir / "final_particles.dump")
    assert kind == "particles" and e.n_p == 500 and t == 0.3


def test_cli_periodic_dumps(tmp_path):
    outdir = tmp_path / "dumps"
    rc = cli_main(["run", "scenario=landau", "solver=spectral", "nx=16",
                   "nv=16", "dt=0.1", "t_max=0.4", "dump_stride=2",
                   f"outdir={outdir}"])
    assert rc == 0
    stamped = sorted(outdir.glob("state_t*.grid"))
    assert len(stamped) == 3  # records at t=0..0.4, every 2nd dumped
    kind, g, t = read_dump(stamped[0])
    assert kind == "grid" and t == 0.0


def test_cli_sample_rejects_zero_n(tmp_path, capsys):
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    src = tmp_path / "g.bin"
    write_grid_dump(src, GriddedDensity(dom, np.ones((8, 8))), t=0.0)
    rc = cli_main(["sample", str(src), str(tmp_path / "out.bin"), "n=0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("args,key", [
    (["sequence=sobol", "seed=3"], "seed"),
    (["seed=3"], "seed"),
    (["sequence=pseudorandom", "sobol_skip=3"], "sobol_skip"),
    (["sequence=halton"], "sequence"),
])
def test_cli_sample_rejects_key_the_sequence_never_reads(tmp_path, capsys, args, key):
    src = tmp_path / "g.bin"
    write_grid_dump(src, GriddedDensity(PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0),
                                        np.ones((8, 8))), t=0.0)
    out = tmp_path / "out.bin"
    assert cli_main(["sample", str(src), str(out), "n=10", *args]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["sample", str(src), str(out), "n=10", "sequence=pseudorandom",
                     "seed=3"]) == 0
    assert cli_main(["sample", str(src), str(out), "n=10", "sobol_skip=3"]) == 0


def _particle_dump(path):
    e = ParticleEnsemble(x=[0.5, 1.0], v=[0.0, 0.5], f_like=[1.0, 1.0],
                         g_like=[1.0, 1.0])
    write_particle_dump(path, e, PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0), 0.0)
    return path


@pytest.mark.parametrize("args,problem", [
    (["n=10", "sobol_skip=0"], "sobol_skip must be >= 1"),
    (["n=10", "sequence=pseudorandom", "seed=-1"], "seed must be >= 0"),
    (["n=0", "sequence=bogus"], "n must be >= 1; sequence 'bogus' not in sobol|pseudorandom"),
])
def test_cli_sample_bounds_are_usage_errors(tmp_path, capsys, args, problem):
    src = tmp_path / "g.bin"
    write_grid_dump(src, GriddedDensity(PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0),
                                        np.ones((8, 8))), t=0.0)
    out = tmp_path / "out.bin"
    assert cli_main(["sample", str(src), str(out), *args]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_cli_reconstruct_bounds_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "out.bin"
    assert cli_main(["reconstruct", str(_particle_dump(tmp_path / "p.dump")), str(out),
                     "nx=1", "nv=1"]) == 2
    assert "nx must be >= 2; nv must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reconstruct_interp_picks_lam_for_empty_hat_functions(tmp_path):
    # 64 markers outnumber the 16 hat functions, but v stays within about
    # +-2 while the edge nodes sit at +-6.5, so their hats hold no marker
    # and the fit must regularize on its own
    run = tmp_path / "run"
    assert cli_main(["run", "solver=pic", "n_p=64", "n_f=8", "dt=0.1", "t_max=0.2",
                     f"outdir={run}"]) == 0
    _, e, _, _ = read_dump(run / "final_particles.dump")
    assert np.max(np.abs(e.v)) < 6.5 - 13.0 / 3
    out = tmp_path / "interp.grid"
    assert cli_main(["reconstruct", str(run / "final_particles.dump"), str(out),
                     "mode=interp", "nx=4", "nv=4"]) == 0
    kind, g, _ = read_dump(out)
    assert kind == "grid" and g.values.shape == (4, 4)
    assert np.all(np.isfinite(g.values))


@pytest.mark.parametrize("args,problem", [
    (["mode=osde", "lam=0.1"], "lam not read by mode=osde"),
    (["lam=0.1"], "lam not read by mode=osde"),
    (["mode=interp", "lam=-1"], "lam must be >= 0"),
    (["mode=interp", "lam=nan"], "lam must be >= 0"),
    (["mode=spline"], "mode 'spline' not in osde|interp"),
    (["nx=1", "mode=bogus"], "nx must be >= 2; mode 'bogus' not in osde|interp"),
])
def test_cli_reconstruct_lam_rules_are_usage_errors(tmp_path, capsys, args, problem):
    # lam is read only by mode=interp, and never below 0
    out = tmp_path / "out.bin"
    assert cli_main(["reconstruct", str(_particle_dump(tmp_path / "p.dump")), str(out),
                     *args]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["solver=pic", "n_p=10", "sobol_skip=4294967287"],
    ["solver=coupled", "t0=0.1", "n_p=10", "sobol_skip=4294967295"],
])
def test_run_beyond_the_sobol_points_is_usage_error(tmp_path, capsys, args):
    outdir = tmp_path / "run"
    assert cli_main(["run", *args, "dt=0.1", "t_max=0.2", f"outdir={outdir}"]) == 2
    assert "sobol_skip + n_p must be <= 4294967296" in capsys.readouterr().err
    assert not outdir.exists()
    # the last index of the construction is still a valid point
    assert parse_config(None, ["solver=pic", "n_p=10", "sobol_skip=4294967286"])


def test_cli_sample_beyond_the_sobol_points_is_usage_error(tmp_path, capsys):
    src = tmp_path / "g.bin"
    write_grid_dump(src, GriddedDensity(PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0),
                                        np.ones((8, 8))), t=0.0)
    out = tmp_path / "out.bin"
    assert cli_main(["sample", str(src), str(out), "n=5", "sobol_skip=4294967295"]) == 2
    assert "sobol_skip + n must be <= 4294967296" in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["sample", str(src), str(out), "n=5", "sobol_skip=4294967291"]) == 0


def test_cli_discrepancy_cap_below_one_is_usage_error(tmp_path, capsys):
    assert cli_main(["discrepancy", str(_particle_dump(tmp_path / "p.dump")),
                     "cap=0"]) == 2
    captured = capsys.readouterr()
    assert "cap must be >= 1" in captured.err
    assert captured.out == ""


def test_cli_sample_and_reconstruct_round_trip(tmp_path):
    dom = PhaseSpaceDomain(0.0, 2.0, -1.0, 1.0)
    rng = np.random.default_rng(2)
    g = GriddedDensity(dom, rng.random((12, 12)) + 0.5)
    src = tmp_path / "g.bin"
    write_grid_dump(src, g, t=0.0)
    parts = tmp_path / "p.bin"
    assert cli_main(["sample", str(src), str(parts), "n=20000"]) == 0
    kind, e, dom2, _ = read_dump(parts)
    assert kind == "particles" and e.n_p == 20000
    out = tmp_path / "recon.bin"
    assert cli_main(["reconstruct", str(parts), str(out), "mode=osde",
                     "nx=12", "nv=12"]) == 0
    _, est, _ = read_dump(out)
    # reconstruction of f from weighted markers approaches the dumped grid
    rel = np.linalg.norm(est.values - g.values) / np.linalg.norm(g.values)
    assert rel < 0.1


def test_cli_discrepancy_orders_sequences(tmp_path, capsys):
    def make_dump(path, seq_args):
        rc = cli_main(["run", "scenario=landau", "solver=pic", "sampling=uniform",
                       "n_p=4000", "n_f=16", "dt=0.1", "t_max=0.1",
                       "v_min=-8", "v_max=8",
                       f"outdir={path}"] + seq_args)
        assert rc == 0
        return path / "final_particles.dump"

    sobol_dump = make_dump(tmp_path / "s", ["sequence=sobol"])
    random_dump = make_dump(tmp_path / "r", ["sequence=pseudorandom", "seed=3"])

    def dstar_of(dump):
        assert cli_main(["discrepancy", str(dump), "window=0,2,-1,1"]) == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        return float(line.split(",")[2])

    # one push of dt=0.1 from uniform Sobol start keeps the ordering
    assert dstar_of(sobol_dump) < dstar_of(random_dump)


def test_cli_hk_variation_and_dump_info(tmp_path, capsys):
    dom = PhaseSpaceDomain(0.0, 2 * np.pi, -1.0, 1.0)
    x = np.arange(32) * 2 * np.pi / 32
    vals = np.tile(np.sin(x)[:, None], (1, 9))
    g = GriddedDensity(dom, np.concatenate([vals, vals[:, :1]], axis=1))
    src = tmp_path / "g.bin"
    write_grid_dump(src, g, t=2.0)
    assert cli_main(["hk-variation", str(src)]) == 0
    out = capsys.readouterr().out.strip().split("\n")[-1]
    assert float(out.split(",")[1]) == pytest.approx(8.0, rel=0.02)
    assert cli_main(["dump-info", str(src)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "grid" and info["t"] == 2.0


def test_cli_hk_variation_of_final_dump_matches_last_row(tmp_path, capsys):
    # the n_pad = 1 dump holds the state's own values, so the subcommand
    # reproduces the run's last Hardy-Krause cell to the last digit
    outdir = tmp_path / "run"
    assert cli_main(["run", "scenario=landau", "solver=spectral", "nx=16", "nv=16",
                     "dt=0.1", "t_max=0.3", "hk_period=1", f"outdir={outdir}"]) == 0
    last = (outdir / "timeseries.csv").read_text().splitlines()[-1].split(",")
    capsys.readouterr()
    assert cli_main(["hk-variation", str(outdir / "final_state.grid")]) == 0
    t, hk = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert (t, hk) == (last[CSV_HEADER.index("t")],
                       last[CSV_HEADER.index("hk_variation")])


def test_cli_usage_errors(tmp_path, capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["run", "dt=0"]) == 2
    assert cli_main(["discrepancy"]) == 2
    assert cli_main(["run", "solver=pic", "integrator=cn",
                     f"outdir={tmp_path / 'cn'}"]) == 2
    assert not (tmp_path / "cn").exists()
    rc = cli_main(["hk-variation", str(tmp_path / "missing.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_bad_window_is_usage_error(tmp_path, capsys):
    dump = _particle_dump(tmp_path / "p.dump")
    assert cli_main(["discrepancy", str(dump), "window=a,b,c,d"]) == 2
    # a window needs x1 > x0 and v1 > v0
    assert cli_main(["discrepancy", str(dump), "window=0,0,-1,1"]) == 2
    assert cli_main(["discrepancy", str(dump), "window=2,0,-1,1"]) == 2
    assert cli_main(["discrepancy", str(dump), "window=0,2,1,1"]) == 2
    outdir = tmp_path / "run"
    assert cli_main(["run", "solver=pic", "star_disc_period=1", "star_disc_window=1,1,-1,1",
                     "n_p=50", "dt=0.1", "t_max=0.1", f"outdir={outdir}"]) == 2
    assert not outdir.exists()
    assert cli_main(["run", "solver=pic", "star_disc_window=a,b,c,d",
                     f"outdir={outdir}"]) == 2
    assert not outdir.exists()  # rejected before anything is written
    assert "star_disc_window" in capsys.readouterr().err


def test_cli_help():
    assert cli_main([]) == 2
    assert cli_main(["--help"]) == 0
