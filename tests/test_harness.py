import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdrkfr import blending, cli, core, harness, models
from mdrkfr.errors import ConfigurationError


def test_catalog_covers_required_cases():
    expected = {"linadv_sine", "varadv_x2", "burgers_sine", "blast",
                "titarev_toro", "density_ratio", "sedov", "source_manufactured"}
    assert expected <= set(harness.CATALOG)


def test_unknown_case():
    with pytest.raises(ConfigurationError):
        harness.build_case("double_mach")


def test_case_setups_match_documented_values():
    blast = harness.build_case("blast")
    assert blast.final_time == pytest.approx(0.038)
    assert blast.default_cells == 400
    u = blast.initial(np.array([0.05, 0.5, 0.95]))
    p = models.Euler().pressure(u.T)
    assert np.allclose(p, [1000.0, 0.01, 100.0])

    sedov = harness.build_case("sedov")
    assert sedov.default_cells == 201 and sedov.final_time == pytest.approx(1e-3)
    tt = harness.build_case("titarev_toro")
    assert tt.default_cells == 800 and tt.final_time == pytest.approx(5.0)
    dr = harness.build_case("density_ratio")
    assert dr.default_cells == 500 and dr.final_time == pytest.approx(0.15)
    u = dr.initial(np.array([0.1, 0.9]))
    assert np.allclose(u[..., 0], [1000.0, 1.0])


def test_sedov_energy_deposit():
    case = harness.build_case("sedov")
    grid = core.make_grid(-1.0, 1.0, 201)
    ops = core.make_operators(3, "gl", "radau")
    fld = harness.initial_field(case, grid, ops)
    dx = 2.0 / 201
    peak = fld.data[..., 2].max()
    assert peak == pytest.approx(3.2e6 / dx, rel=1e-12)
    # exactly one cell carries the peak
    assert int(np.sum(fld.data[:, 0, 2] > 1.0)) == 1


# ----------------------------------------------------------------------
# norms


def test_error_norms_zero_and_offset():
    cfg = core.RunConfig(final_time=1.0)
    grid = core.make_grid(0.0, 1.0, 10)
    disc = core.make_discretization(grid, models.LinearAdvection(1.0), cfg)
    exact = lambda x, t: np.sin(2 * np.pi * np.asarray(x))[..., None]
    u = exact(disc.xn, 0.0)
    l2, linf = harness.error_norms(disc, u, exact, 0.0)
    assert linf[0] == 0.0 and l2[0] == 0.0
    l2, linf = harness.error_norms(disc, u + 0.25, exact, 0.0)
    assert linf[0] == pytest.approx(0.25, abs=1e-14)
    assert l2[0] == pytest.approx(0.25, abs=1e-13)  # domain length one


def test_l2_norm_matches_analytic_integral():
    cfg = core.RunConfig(final_time=1.0)
    grid = core.make_grid(0.0, 1.0, 10)
    disc = core.make_discretization(grid, models.LinearAdvection(1.0), cfg)
    u = np.sin(2 * np.pi * disc.xn)[..., None]
    zero = lambda x, t: np.zeros(np.shape(x) + (1,))
    l2, _ = harness.error_norms(disc, u, zero, 0.0)
    assert l2[0] == pytest.approx(np.sqrt(0.5), abs=1e-10)


# ----------------------------------------------------------------------
# reference ingestion and snapshots


def test_reference_round_trip(tmp_path):
    cfg = core.RunConfig(final_time=1.0)
    grid = core.make_grid(0.0, 1.0, 6)
    disc = core.make_discretization(grid, models.LinearAdvection(1.0), cfg)
    u = np.cos(disc.xn)[..., None]
    path = tmp_path / "snap.csv"
    harness.write_snapshot(path, disc, u, 0.3)
    ref = harness.ingest_reference(path)
    vals = ref(disc.xn.ravel())
    assert np.allclose(vals[:, 0], u.ravel(), atol=1e-15)
    assert not ref.clamped


def test_reference_two_point_interpolation(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("x,u\n0,0\n1,1\n")
    ref = harness.ingest_reference(path)
    assert ref(0.5)[0] == pytest.approx(0.5)
    assert not ref.clamped
    assert ref(1.5)[0] == pytest.approx(1.0)  # clamped endpoint
    assert ref.clamped


def test_reference_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,u\n0,0\nnot_a_number,1\n")
    with pytest.raises(ConfigurationError) as err:
        harness.ingest_reference(path)
    assert ":3:" in str(err.value)
    path.write_text("u,x\n0,0\n")
    with pytest.raises(ConfigurationError):
        harness.ingest_reference(path)
    path.write_text("x,u\n1,0\n0,1\n")
    with pytest.raises(ConfigurationError):
        harness.ingest_reference(path)


@pytest.mark.parametrize("rows", ["0,1\nnan,2\n1,3\n", "0,1\n1,inf\n", "0,1\n1,-inf\n"])
def test_reference_refuses_non_finite_entries(tmp_path, rows):
    # a NaN x passes an ascending test written as "no negative difference"
    path = tmp_path / "nonfinite.csv"
    path.write_text("x,u\n" + rows)
    with pytest.raises(ConfigurationError, match=":3: entries must be finite"):
        harness.ingest_reference(path)


def test_snapshot_determinism(tmp_path):
    res1 = harness.run_case("linadv_sine", cells=10,
                            config=harness.case_config(
                                harness.build_case("linadv_sine"), final_time=0.1))
    res2 = harness.run_case("linadv_sine", cells=10,
                            config=harness.case_config(
                                harness.build_case("linadv_sine"), final_time=0.1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_snapshot(p1, res1.disc, res1.field.data, res1.field.time)
    harness.write_snapshot(p2, res2.disc, res2.field.data, res2.field.time)
    assert p1.read_bytes() == p2.read_bytes()


# ----------------------------------------------------------------------
# configuration files


def test_load_config_file_and_overrides():
    text = "[run]\ncfl = 0.09\nlimiter = mh\ncells = 123\n"
    cfg, extras = harness.load_config(text=text, overrides=["final_time=0.5"])
    assert cfg.cfl == pytest.approx(0.09)
    assert cfg.limiter == "mh"
    assert cfg.final_time == pytest.approx(0.5)
    assert extras["cells"] == "123"


@pytest.mark.parametrize("text, overrides, key", [
    ("[run]\nlimitr = fo\ncells = 50\n", [], "limitr"),
    ("[run]\ncells = 50\n", ["limter=fo"], "limter"),
    # the step margin and the indicator's parameters are constants, not settings
    ("[run]\nsafety = 0.9\n", [], "safety"),
    ("[run]\n", ["alpha_max=0.4"], "alpha_max"),
    ("[run]\nalpha_min = 0.002\n", [], "alpha_min"),
    ("[run]\n", ["indicator_sharpness=8.0"], "indicator_sharpness"),
])
def test_load_config_refuses_unknown_keys(text, overrides, key):
    # a misspelt key used to be filed under extras and left the setting at
    # its default; cells is the one extra anything reads
    with pytest.raises(ConfigurationError, match=rf"unknown configuration keys \['{key}'\]"):
        harness.load_config(text=text, overrides=overrides)


def test_load_config_bad_override():
    with pytest.raises(ConfigurationError):
        harness.load_config(text="[run]\n", overrides=["oops"])


def test_load_config_base_wins_when_untouched():
    base = core.RunConfig(limiter="fo", final_time=0.25)
    cfg, _ = harness.load_config(text="[run]\ncfl = 0.05\n", base=base)
    assert cfg.limiter == "fo" and cfg.final_time == 0.25
    assert cfg.cfl == pytest.approx(0.05)


def dump_config(config):
    """A [run] file that sets every RunConfig field of config."""
    return "[run]\n" + "".join(f"{f.name} = {getattr(config, f.name)}\n"
                                for f in fields(config))


def test_dump_config_round_trip():
    cfg = core.RunConfig(limiter="mh", cfl=0.08)
    text = dump_config(cfg)
    cfg2, _ = harness.load_config(text=text)
    assert cfg2 == cfg


def test_every_config_knob_is_settable():
    samples = {
        "degree": "3", "points": "gll", "correction": "g2",
        "dissipation": "d1", "face_scheme": "ae", "cfl": "0.05",
        "limiter": "fo", "boundary": "transmissive", "final_time": "0.125",
        "snapshot_every": "7",
    }
    names = {f.name for f in fields(core.RunConfig)}
    assert names == set(samples), "keep the sample map in sync with RunConfig"
    cfg, _ = harness.load_config(overrides=[f"{k}={v}" for k, v in samples.items()])
    for f in fields(core.RunConfig):
        got = getattr(cfg, f.name)
        want = harness._coerce(f.name, samples[f.name])
        assert got == want, f.name


# ----------------------------------------------------------------------
# runs and convergence plumbing


def test_run_case_reaches_final_time():
    cfg = harness.case_config(harness.build_case("linadv_sine"), final_time=0.3)
    res = harness.run_case("linadv_sine", cfg, cells=12)
    assert res.field.time == pytest.approx(0.3, abs=1e-12)
    assert res.steps > 0


@pytest.mark.parametrize("scheme", ["mdrk", "rkfr"])
def test_on_step_sees_every_accepted_step(scheme):
    # one call per accepted step, after result.field and result.steps moved on
    cfg = harness.case_config(harness.build_case("linadv_sine"), final_time=0.1)
    seen = []

    def on_step(result, before, diag):
        assert before.time + diag.dt == result.field.time
        assert result.field.data is not before.data
        seen.append((result.steps, result.field.time))

    res = harness.run_case("linadv_sine", cfg, cells=10, scheme=scheme, on_step=on_step)
    assert [n for n, _ in seen] == list(range(1, res.steps + 1))
    assert seen[-1][1] == res.field.time


def test_baseline_run_does_not_mutate_shared_config():
    # interleaved baseline/two-stage runs must not leak the baseline CFL
    cfg = harness.case_config(harness.build_case("linadv_sine"), final_time=0.1)
    harness.run_case("linadv_sine", cfg, cells=10, scheme="rkfr")
    assert cfg.cfl is None
    res = harness.run_case("linadv_sine", cfg, cells=10, scheme="mdrk")
    dt_first = res.field.time / res.steps
    assert dt_first <= 0.98 * 0.107 * 0.1 + 1e-12


def test_mismatched_boundary_is_refused():
    # the case's boundary is part of the problem; a config may not swap it
    cfg = harness.case_config(harness.build_case("blast"), boundary="periodic")
    with pytest.raises(ConfigurationError, match="reflective"):
        harness.run_case("blast", cfg, cells=20)


def test_degree_without_cfl_is_refused():
    # default CFLs are certified for degree 3 only
    with pytest.raises(ConfigurationError, match="cfl"):
        core.RunConfig(degree=5).validate()
    with pytest.raises(ConfigurationError, match="cfl"):
        harness.load_config(overrides=["degree=5"])
    assert core.RunConfig(degree=5, cfl=0.02).validate().resolved_cfl() == 0.02
    cfg = harness.case_config(harness.build_case("linadv_sine"), degree=5, cfl=0.02,
                              final_time=0.01)
    res = harness.run_case("linadv_sine", cfg, cells=10)
    assert np.isfinite(res.field.data).all()


def test_gll_with_mh_is_refused():
    with pytest.raises(ConfigurationError, match="limiter=fo"):
        core.RunConfig(points="gll", correction="g2", limiter="mh").validate()
    cfg = harness.case_config(harness.build_case("blast"), points="gll",
                              correction="g2", limiter="mh")
    with pytest.raises(ConfigurationError, match="limiter=fo"):
        harness.run_case("blast", cfg, cells=20)
    core.RunConfig(points="gll", correction="g2", limiter="fo").validate()
    core.RunConfig(points="gl", limiter="mh").validate()


# each gas case briefly, at a mesh and final time that keep the sweep short
SWEEP_CASES = {"blast": (50, 0.002), "density_ratio": (50, 0.005), "sedov": (51, 1e-4),
               "titarev_toro": (80, 0.1)}


@pytest.mark.parametrize("limiter", ["fo", "mh"])
@pytest.mark.parametrize("face_scheme", ["ae", "ea"])
@pytest.mark.parametrize("dissipation", ["d1", "d2"])
@pytest.mark.parametrize("points, correction", [("gl", "radau"), ("gll", "g2")])
def test_configuration_sweep_runs_or_is_refused(points, correction, dissipation,
                                                face_scheme, limiter):
    """Every blended configuration either runs each gas case with no
    floating-point error or is refused with a ConfigurationError (GLL + mh).

    Underflow is left out of the errstate: the smoothness indicator's
    logistic underflows exp by design on smooth elements, where alpha is
    then zero.
    """
    for case_id, (cells, final_time) in SWEEP_CASES.items():
        cfg = harness.case_config(harness.build_case(case_id), points=points,
                                  correction=correction, dissipation=dissipation,
                                  face_scheme=face_scheme, limiter=limiter,
                                  final_time=final_time)
        if points == "gll" and limiter == "mh":
            with pytest.raises(ConfigurationError, match="limiter=fo"):
                harness.run_case(case_id, cfg, cells)
            continue
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            res = harness.run_case(case_id, cfg, cells)
        assert res.field.time == pytest.approx(final_time, abs=1e-12)
        assert res.steps > 0


OUT_OF_RANGE = [("cfl", "nan"), ("final_time", "nan"), ("snapshot_every", "-3")]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_setting_is_refused(key, value):
    # NaN and negative values must not fall through a comparison
    with pytest.raises(ConfigurationError, match=key):
        harness.load_config(overrides=[f"{key}={value}"])
    cfg = harness.case_config(harness.build_case("blast"),
                              **{key: harness._coerce(key, value)})
    with pytest.raises(ConfigurationError, match=key):
        harness.run_case("blast", cfg, cells=20)


@pytest.mark.parametrize("key, value", [("degree", 2.5), ("degree", True),
                                        ("snapshot_every", 1.5), ("snapshot_every", True)])
def test_non_integer_count_is_refused(key, value):
    # a fractional degree used to pass validate and fail inside operators,
    # and a fractional snapshot_every to set the cadence through steps % 1.5
    with pytest.raises(ConfigurationError, match=key):
        core.RunConfig(cfl=0.1, **{key: value}).validate()


def test_baseline_refuses_non_integer_degree():
    # the baseline's CFL search runs before validate sees the config, and
    # used to fail inside gauss_legendre with a bare TypeError
    cfg = harness.case_config(harness.build_case("linadv_sine"), degree=2.5)
    with pytest.raises(ConfigurationError, match="degree"):
        harness.run_case("linadv_sine", cfg, cells=10, scheme="rkfr")


def test_every_str_setting_has_choices():
    # validate, load_config and the CLI flags read a str field's values from CHOICES
    assert {f.name for f in fields(core.RunConfig) if f.type is str} == set(core.CHOICES)
    assert set(cli.FLAGS) <= {f.name for f in fields(core.RunConfig)}


@pytest.mark.parametrize("key", sorted(core.CHOICES))
def test_unknown_choice_is_refused(key):
    # the message names the field and the values it takes
    want = re.escape(f"unknown {key} 'bogus'; expected one of {core.CHOICES[key]}")
    with pytest.raises(ConfigurationError, match=want):
        core.RunConfig(**{key: "bogus"}).validate()
    with pytest.raises(ConfigurationError, match=want):
        harness.load_config(overrides=[f"{key}=bogus"])


REAL_SETTINGS = ("cfl", "final_time")


# cfl=None selects the certified default
@pytest.mark.parametrize("key, value", [(k, v) for k in REAL_SETTINGS
                                        for v in (True, False, np.bool_(True), "0.1", 1j)]
                         + [(k, None) for k in REAL_SETTINGS if k != "cfl"])
def test_non_real_setting_is_refused(key, value):
    # cfl=True used to pass validate and run at CFL 1.0, and cfl='0.1' to
    # fail a range check with a bare TypeError
    with pytest.raises(ConfigurationError, match=key):
        core.RunConfig(**{key: value}).validate()


def test_real_number_types_are_accepted():
    core.RunConfig(cfl=np.float32(0.1), final_time=np.float64(0.5)).validate()
    core.RunConfig(cfl=1, final_time=np.int64(2)).validate()


def test_range_ends_are_accepted():
    core.RunConfig(snapshot_every=0).validate()


def test_retry_reasons_are_recorded():
    # GLL/g2 with fo blending at the certified CFL 0.224 halves often
    cfg = harness.case_config(harness.build_case("density_ratio"), points="gll",
                              correction="g2", limiter="fo", final_time=0.05)
    res = harness.run_case("density_ratio", cfg, cells=100)
    assert res.retries > 0
    assert sum(res.retry_reasons.values()) == res.retries
    assert any(name.startswith("low-order") for name in res.retry_reasons)


# ----------------------------------------------------------------------
# admissible data runs through run_case's own retry loop

# the pairing and limiter sets of the property, each under the boundary kinds
PIECEWISE_SETS = {"gl-radau-mh": dict(points="gl", correction="radau", limiter="mh"),
                  "gl-radau-fo": dict(points="gl", correction="radau", limiter="fo"),
                  "gll-g2-fo": dict(points="gll", correction="g2", limiter="fo"),
                  "gl-g2-mh": dict(points="gl", correction="g2", limiter="mh")}
PIECEWISE_STEPS = 5


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def gas_pieces(draw):
    """(cuts, rho, v, p) of 2-5 constant gas states on [0, 1]: density
    1e-2..1e3, pressure 1e-4..1e3, |v| <= 10."""
    n = draw(st.integers(2, 5))
    cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         min_size=n - 1, max_size=n - 1, unique=True))
    values = [tuple(draw(st.lists(q, min_size=n, max_size=n)))
              for q in (_log_uniform(1e-2, 1e3), st.floats(-10.0, 10.0),
                        _log_uniform(1e-4, 1e3))]
    return (tuple(sorted(cuts)), *values)


class _Enough(Exception):
    pass


def run_pieces(setup, boundary, pieces, steps=PIECEWISE_STEPS):
    """run_case on the pieces sampled at the nodes of 16 cells, as a
    catalogue entry, stopped after the given number of accepted steps."""
    cuts, rho, v, p = (np.array(q) for q in pieces)

    def initial(x):
        k = np.searchsorted(cuts, x)
        return core.element_major(models.Euler().conserved(rho[k], v[k], p[k]))

    def stop(result, before, diag):
        if result.steps == steps:
            raise _Enough(result)

    case = harness.CaseSpec(name="pieces", make_model=models.Euler, xlo=0.0, xhi=1.0,
                            boundary=boundary, final_time=1.0, default_cells=16,
                            initial=initial)
    cfg = harness.case_config(case, **PIECEWISE_SETS[setup])
    with mock.patch.dict(harness.CATALOG, {"pieces": case}):
        try:
            return harness.run_case("pieces", cfg, on_step=stop)
        except _Enough as enough:
            return enough.args[0]


# admissible states whose first step needs 13-15 halvings: the stage-one
# stencil bound min rho / (2 |r|) lies that far below the CFL step
HALVING_PIECES = (
    ("gll-g2-fo", "periodic",
     ((0.5812,), (2.932e-2, 990.08), (-8.9101, 8.1218), (0.1194, 0.0053))),
    ("gl-radau-fo", "transmissive",
     ((0.1266, 0.1929, 0.2379, 0.7309), (960.6, 0.65463, 164.5, 2.3893e-2, 6.5336),
      (-1.2681, 6.8415, -4.8498, 4.789, -5.7319),
      (585.58, 1.2915, 352.27, 1.6873e-3, 3.033))),
    ("gll-g2-fo", "reflective",
     ((0.2229, 0.348, 0.5428), (1.8753e-2, 326.24, 526.34, 1.722e-2),
      (-1.595, 5.7834, -6.9113, 4.6305), (0.30057, 2.249e-4, 56.414, 0.78576))),
)


@settings(max_examples=200, deadline=None)
@given(setup=st.sampled_from(sorted(PIECEWISE_SETS)),
       boundary=st.sampled_from(["periodic", "transmissive", "reflective"]),
       pieces=gas_pieces())
@example(*HALVING_PIECES[0])
@example(*HALVING_PIECES[1])
@example(*HALVING_PIECES[2])
def test_admissible_pieces_run_and_stay_admissible(setup, boundary, pieces):
    with np.errstate(all="ignore"):
        res = run_pieces(setup, boundary, pieces)
    assert res.steps == PIECEWISE_STEPS or res.field.time == 1.0
    assert (res.min_constraints > 0.0).all()


@pytest.mark.parametrize("setup, boundary, pieces", HALVING_PIECES,
                         ids=[f"{s}-{b}" for s, b, _ in HALVING_PIECES])
def test_first_step_of_admissible_pieces_halves_past_twelve(setup, boundary, pieces):
    # what the step limit has to leave room for: all at the stencil check
    with np.errstate(all="ignore"):
        res = run_pieces(setup, boundary, pieces, steps=1)
    assert res.steps == 1 and 12 < res.retries <= harness.MAX_HALVINGS
    assert set(res.retry_reasons) == {"density"}


def test_step_inputs_built_once_per_accepted_state(monkeypatch):
    # every halved attempt reuses its state's StepStart: one mean-speed
    # pass, one first-order subcell pass, one build of the face check's
    # parts and one stage-one alpha per state, however many attempts the
    # state takes
    calls = {"speeds": 0, "subfaces": 0, "parts": 0, "attempts": 0, "alpha": 0,
             "stage-two alpha": 0, "stage twos": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def start(disc, u):
        starting.append(True)
        try:
            return step_start(disc, u)
        finally:
            starting.pop()

    def alpha(disc, u):
        calls["alpha" if starting else "stage-two alpha"] += 1
        return smoothness_alpha(disc, u)

    def average(model, state, pieces, *args):
        out = time_average(model, state, pieces, *args)
        calls["stage twos"] += len(pieces) == 2
        return out

    starting, step_start, time_average = [], core.step_start, core.time_average
    smoothness_alpha = blending.smoothness_alpha
    monkeypatch.setattr(core, "step_start", start)
    monkeypatch.setattr(core, "time_average", average)
    monkeypatch.setattr(core, "_mean_speeds", counted("speeds", core._mean_speeds))
    monkeypatch.setattr(blending, "low_order_subface_fluxes",
                        counted("subfaces", blending.low_order_subface_fluxes))
    monkeypatch.setattr(blending, "face_update_parts",
                        counted("parts", blending.face_update_parts))
    monkeypatch.setattr(blending, "smoothness_alpha", alpha)
    monkeypatch.setattr(core, "mdrk_step", counted("attempts", core.mdrk_step))
    cfg = harness.case_config(harness.build_case("density_ratio"), points="gll",
                              correction="g2", face_scheme="ae", limiter="fo",
                              final_time=0.05)
    res = harness.run_case("density_ratio", cfg, cells=100)
    assert calls["speeds"] == calls["subfaces"] == calls["parts"] == calls["alpha"] == res.steps
    assert calls["attempts"] == res.steps + res.retries > res.steps
    # stage two's alpha runs once in every attempt that reaches stage two:
    # the accepted ones at least, never the ones the face check halves
    assert calls["stage-two alpha"] == calls["stage twos"]
    assert res.steps <= calls["stage twos"] < calls["attempts"]


@pytest.mark.parametrize("cells", [2.5, True, 0, -3])
def test_run_case_refuses_bad_cell_counts(cells):
    with pytest.raises(ConfigurationError, match="ncells"):
        harness.run_case("linadv_sine", cells=cells)


def test_convergence_requires_three_meshes():
    with pytest.raises(ConfigurationError):
        harness.convergence_suite("linadv_sine", [20, 40])


def test_convergence_refuses_bad_mesh_before_running(monkeypatch):
    def run_case(*args, **kwargs):
        raise AssertionError("ran before the mesh list was checked")

    monkeypatch.setattr(harness, "run_case", run_case)
    with pytest.raises(ConfigurationError, match="0 cells"):
        harness.convergence_suite("linadv_sine", [20, 40, 0])


@pytest.mark.parametrize("meshes", [[10, 10, 20], [20, 10, 5]])
def test_convergence_refuses_meshes_that_do_not_increase(monkeypatch, meshes):
    # a repeated mesh used to give nan orders from log2(1) = 0, and a
    # decreasing sequence a false non-monotone decay warning
    def run_case(*args, **kwargs):
        raise AssertionError("ran before the mesh list was checked")

    monkeypatch.setattr(harness, "run_case", run_case)
    with pytest.raises(ConfigurationError, match="strictly increase"):
        harness.convergence_suite("linadv_sine", meshes)


def test_convergence_requires_exact_solution():
    with pytest.raises(ConfigurationError):
        harness.convergence_suite("blast", [100, 200, 400])


def test_config_hash_distinguishes_configs():
    a = harness.config_hash(core.RunConfig())
    b = harness.config_hash(core.RunConfig(cfl=0.05))
    assert a != b and len(a) == 16


# ----------------------------------------------------------------------
# command line


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mdrkfr.cli", *args],
                          capture_output=True, text=True)


def test_cli_run_smoke():
    out = run_cli("run", "--case", "linadv_sine", "--cells", "10",
                  "--final-time", "0.2")
    assert out.returncode == 0
    assert "L2" in out.stdout


def test_cli_configuration_error_exit_code():
    out = run_cli("run", "--case", "linadv_sine", "--override", "limiter=tvb")
    assert out.returncode == 1


@pytest.mark.parametrize("flag, value", [("--limiter", "tvb"), ("--cells", "2.5"),
                                         ("--cfl", "abc")])
def test_cli_usage_error_exit_code(flag, value, capsys):
    # argparse's own usage errors used to exit 2, an admissibility abort's code
    assert cli.main(["run", "--case", "blast", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mdrkfr run") and f"error: argument {flag}" in err
    out = run_cli("run", "--case", "blast", flag, value)
    assert out.returncode == 1 and f"error: argument {flag}" in out.stderr


def test_cli_help_exits_zero(capsys):
    assert cli.main(["run", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: mdrkfr run")


def test_cli_mismatched_boundary_exit_code():
    out = run_cli("run", "--case", "blast", "--cells", "20",
                  "--override", "boundary=periodic")
    assert out.returncode == 1
    assert "configuration error" in out.stderr and "reflective" in out.stderr


def test_cli_admissibility_exit_code():
    out = run_cli("run", "--case", "blast", "--cells", "50",
                  "--limiter", "none")
    assert out.returncode == 2
    assert "aborted" in out.stderr


def test_cli_prints_retry_reasons():
    out = run_cli("run", "--case", "density_ratio", "--cells", "100",
                  "--final-time", "0.05", "--points", "gll", "--correction", "g2",
                  "--limiter", "fo")
    assert out.returncode == 0
    assert re.search(r"retries=[1-9]\d* \(.*low-order", out.stdout)


def test_cli_stability_smoke():
    out = run_cli("stability", "--correction", "radau", "--dissipation", "d2",
                  "--kappa-samples", "512")
    assert out.returncode == 0
    assert "cfl=0.107" in out.stdout


def test_cli_zero_kappa_samples_exit_code():
    out = run_cli("stability", "--kappa-samples", "0")
    assert out.returncode == 1
    assert "configuration error" in out.stderr and "wavenumber" in out.stderr


def test_cli_degree_without_cfl_exit_code():
    out = run_cli("run", "--case", "linadv_sine", "--cells", "20",
                  "--override", "degree=5")
    assert out.returncode == 1
    assert "configuration error" in out.stderr and "cfl" in out.stderr


def test_cli_gll_mh_exit_code():
    out = run_cli("run", "--case", "blast", "--cells", "20", "--points", "gll",
                  "--correction", "g2", "--limiter", "mh")
    assert out.returncode == 1
    assert "configuration error" in out.stderr and "limiter=fo" in out.stderr


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_cli_out_of_range_setting_exit_code(key, value):
    out = run_cli("run", "--case", "blast", "--cells", "20",
                  "--override", f"{key}={value}")
    assert out.returncode == 1
    assert "configuration error" in out.stderr and key in out.stderr


@pytest.mark.parametrize("argv, key", [
    (["run", "--case", "blast", "--cells", "0"], "0 cells"),
    (["compare", "--case", "linadv_sine", "--meshes", "0,20"], "0 cells"),
    (["run", "--case", "blast", "--cells", "20", "--override", "cfl=abc"], "cfl"),
    (["run", "--case", "blast", "--cells", "20", "--override", "degree=2.5"], "degree"),
    (["run", "--case", "blast", "--config", "{tmp}/cells.cfg"], "cells"),
    (["compare", "--case", "linadv_sine", "--meshes", "20,x"], "meshes"),
    (["convergence", "--case", "linadv_sine", "--meshes", "20,x,40"], "meshes"),
    (["compare", "--case", "linadv_sine", "--meshes", "40,0"], "0 cells"),
    (["convergence", "--case", "linadv_sine", "--meshes", "40,80,0"], "0 cells"),
    (["convergence", "--case", "linadv_sine", "--meshes", "10,10,20"], "strictly increase"),
    (["convergence", "--case", "linadv_sine", "--meshes", "20,10,5"], "strictly increase"),
])
def test_cli_refuses_bad_mesh_and_unparsable_value(argv, key, tmp_path, capsys):
    # a zero mesh reaches make_grid's refusal instead of the default mesh,
    # before any mesh of the list runs or prints, and a value that does not
    # parse names its key instead of a traceback
    (tmp_path / "cells.cfg").write_text("[run]\ncells = abc\n")
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error:") and key in err


@pytest.mark.parametrize("argv", [["--override", "limter=fo"], ["--config", "{tmp}/limitr.cfg"],
                                  # constants, no longer settings
                                  ["--override", "alpha_max=0.4"], ["--config", "{tmp}/safety.cfg"],
                                  ["--override", "alpha_min=0.002"],
                                  ["--config", "{tmp}/indicator_sharpness.cfg"]])
def test_cli_refuses_unknown_configuration_keys(argv, tmp_path, capsys):
    # a misspelt key used to exit 0 after a run with the default mh limiter;
    # the key is the override's left side or the config file's name
    key = Path(argv[1].partition("=")[0]).stem
    (tmp_path / f"{key}.cfg").write_text(f"[run]\n{key} = 0.9\n")
    argv = ["run", "--case", "blast", "--cells", "50", "--final-time", "0.001", *argv]
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"configuration error: unknown configuration keys ['{key}']\n"


@pytest.mark.parametrize("text, want", [
    (b"cfl = 0.1\n", "bad.cfg"),
    (b"[run]\ncfl = 0.1\ncfl = 0.2\n", "bad.cfg"),
    (b"[run]\ncfl = 10%\n", "cfl must be a number, got '10%'"),
    (b"\xff[run]\ncfl = 0.1\n", "bad.cfg"),
], ids=["no-header", "repeated-key", "percent", "not-utf8"])
def test_cli_refuses_unparsable_config_file(text, want, tmp_path, capsys):
    # the parser's own errors used to escape main as tracebacks
    (tmp_path / "bad.cfg").write_bytes(text)
    assert cli.main(["run", "--case", "blast", "--cells", "20",
                     "--config", str(tmp_path / "bad.cfg")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error:") and want in err


@pytest.mark.parametrize("pin, cfl", [([], "0.2152"), (["--cfl", "0.05"], "0.0500")])
def test_cli_compare_prints_the_baseline_cfl_it_ran(pin, cfl, capsys):
    # a pinned CFL used to be reported as the certified default
    assert cli.main(["compare", "--case", "linadv_sine", "--meshes", "10,20,40",
                     "--final-time", "0.1", *pin]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:4]] == ["10", "20", "40"]
    assert lines[4:] == [f"baseline cfl: {cfl}"]


def test_cli_numbered_snapshots(tmp_path, capsys, monkeypatch):
    # every multiple of snapshot_every and the last step get a numbered
    # snapshot; the last one is the --output file
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--case", "blast", "--cells", "20", "--final-time", "0.002",
                     "--limiter", "fo", "--output", "snap.csv",
                     "--override", "snapshot_every=4"]) == 0
    steps = int(re.search(r"steps=(\d+)", capsys.readouterr().out).group(1))
    assert steps % 4 != 0
    want = {f"snap_{n:06d}.csv" for n in [*range(4, steps + 1, 4), steps]}
    assert {p.name for p in tmp_path.glob("snap_*.csv")} == want
    last = (tmp_path / f"snap_{steps:06d}.csv").read_text()
    assert last == (tmp_path / "snap.csv").read_text()
    assert (tmp_path / "snap_000004.csv").read_text() != last


def test_cli_numbered_snapshots_in_dotted_directory(tmp_path, capsys, monkeypatch):
    # the step count used to go in at the directory's dot, out_000002.d/snap,
    # which does not exist
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.d").mkdir()
    assert cli.main(["run", "--case", "blast", "--cells", "20", "--final-time", "0.002",
                     "--output", "out.d/snap", "--override", "snapshot_every=2"]) == 0
    steps = int(re.search(r"steps=(\d+)", capsys.readouterr().out).group(1))
    want = {"snap", *(f"snap_{n:06d}" for n in [*range(2, steps + 1, 2), steps])}
    assert {p.name for p in (tmp_path / "out.d").iterdir()} == want
    assert [p.name for p in tmp_path.iterdir()] == ["out.d"]


def test_cli_snapshot_and_diagnostics(tmp_path):
    snap = tmp_path / "out.csv"
    diag = tmp_path / "diag.csv"
    out = run_cli("run", "--case", "blast", "--cells", "40",
                  "--final-time", "0.001", "--limiter", "fo",
                  "--output", str(snap), "--diagnostics", str(diag))
    assert out.returncode == 0
    header = snap.read_text().splitlines()
    assert header[0].startswith("# meta:")
    assert header[2].startswith("x,density,momentum,energy")
    diag_lines = diag.read_text().splitlines()
    assert diag_lines[0] == "step,t,kind,id,value"
    assert any(",alpha," in line for line in diag_lines[1:])
