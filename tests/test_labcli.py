"""Command-line interface and experiment pipelines.

Covers config parsing, exit-code policy (0 pass / 1 fail / 2 error), CSV
shapes, byte-level determinism of repeated runs, manifest emission, and the
degenerate-input behavior of each experiment.
"""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from kdvlab import cli, hierarchy, ibpcalc, modenergy, spectral
from kdvlab.cli import main, parse_flat_config
from kdvlab.experiments import (
    EXPERIMENTS,
    _loglog_slope,
    exp_bona_smith,
    exp_conservation,
    exp_energy_drift,
    exp_mu_cauchy,
    exp_scaling,
    run_experiment,
)
from kdvlab.modenergy import SingularSystem
from kdvlab.spectral import (
    SolverConfig,
    SpectralField,
    cosine_field,
    hierarchy_flow,
    model_flow,
    random_decay_field,
    regularized_flow,
    sobolev_norm,
    solve,
)

SOLVE_CFG = """
# short model run
flow.kind = model
flow.l = 2
grid.N = 64
time.dt = 1e-3
time.T = 0.01
diagnostics.s = 4
diagnostics.every = 5
output.path = {out}
"""


def _solve_cfg(out, extra: str) -> str:
    """SOLVE_CFG writing to out, each key set in extra's lines replacing its line there."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    base = [line for line in SOLVE_CFG.format(out=out).splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(base + extra.splitlines()) + "\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_flat_config(tmp_path):
    p = _write(
        tmp_path,
        "c.cfg",
        "a = 1\n# comment\nb = hello  # trailing\nlist = 1, 2, 3\n\n",
    )
    cfg = parse_flat_config(p)
    assert cfg == {"a": "1", "b": "hello", "list": ["1", "2", "3"]}


def test_parse_flat_config_rejects_malformed(tmp_path):
    p = _write(tmp_path, "bad.cfg", "just a line without equals\n")
    with pytest.raises(ValueError):
        parse_flat_config(p)
    # a key given twice: no silent last-one-wins
    p = _write(tmp_path, "twice.cfg", "time.T = 0.01\ngrid.N = 64\n# comment\ntime.T = 0.02\n")
    with pytest.raises(ValueError, match=r"twice.cfg:4: key 'time.T' given twice, on lines 1 and 4"):
        parse_flat_config(p)


def test_unknown_experiment_key_is_an_error(tmp_path):
    with pytest.raises(KeyError):
        run_experiment("scaling", {"lambda": 2})


def test_an_unknown_experiment_names_the_known_ones():
    with pytest.raises(KeyError) as info:
        run_experiment("nope")
    assert "'nope'" in str(info.value)
    assert all(repr(name) in str(info.value) for name in EXPERIMENTS)


# ---------------------------------------------------------------------------
# symbolic subcommands
# ---------------------------------------------------------------------------


def test_hierarchy_gen_json(tmp_path):
    out = tmp_path / "lvl.json"
    assert main(["hierarchy", "gen", "--l", "2", "--format", "json", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["l"] == 2
    assert obj["monomials"] == 4


def test_hierarchy_gen_text(capsys):
    assert main(["hierarchy", "gen", "--l", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "G_1 = (1)*u_2 + (1/2)*u*u",
        "rhs_1 = (1)*u_3 + (1)*u*u_1",
        "H_1 = integral of (-1/2)*u_1*u_1 + (1/6)*u*u*u",
    ]


def test_hierarchy_gen_latex(tmp_path, capsys):
    assert main(["hierarchy", "gen", "--l", "1", "--format", "latex"]) == 0
    text = capsys.readouterr().out
    assert "G_{1}" in text and "\\partial_x" in text


def test_ibp_alpha_json_and_verify(tmp_path):
    out = tmp_path / "alpha.json"
    assert main(["ibp", "alpha", "--l", "4", "--verify", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj == {
        "alphas": ["9", "-27", "30", "-9"],
        "diagonal": "-9",
        "l": 4,
        "verified": True,
    }


def test_energy_build_json(tmp_path):
    out = tmp_path / "bp.json"
    assert main(["energy", "build", "--l", "2", "--s", "4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["l"] == 2
    assert obj["resonant_residue"] == []
    assert obj["gammas_at_s"] == [0.5]  # (2s-3)/10 at s=4


def test_usage_error_exit_code():
    assert main(["exp", "not-an-experiment"]) == 2
    assert main([]) == 2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_csv_columns_and_determinism(tmp_path):
    out = tmp_path / "run.csv"
    cfg = _write(tmp_path, "s.cfg", SOLVE_CFG.format(out=out))
    assert main(["solve", "--config", cfg]) == 0
    first = out.read_bytes()
    header = first.decode().splitlines()[0]
    assert header == "t,l2,hs,H0,H1,H2,Es"
    assert main(["solve", "--config", cfg]) == 0
    assert out.read_bytes() == first


def test_solve_manifest(tmp_path):
    out = tmp_path / "run.csv"
    man_path = tmp_path / "m.json"
    cfg = _write(tmp_path, "s.cfg", SOLVE_CFG.format(out=out))
    assert main(["solve", "--config", cfg, "--manifest", str(man_path)]) == 0
    man = json.loads(man_path.read_text())
    assert str(out) in man["outputs"]
    assert man["config"]["grid.N"] == 64
    assert man["config"]["flow.kind"] == "model"


def test_solve_manifest_is_started_before_the_run(tmp_path, monkeypatch):
    # the manifest's started stamp is taken when it is built: that comes before the march
    events, real_solve = [], cli.solve

    class Manifest(cli.RunManifest):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            events.append("started")

    def solve(*args, **kwargs):
        events.append("solve")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "RunManifest", Manifest)
    monkeypatch.setattr(cli, "solve", solve)
    cfg = _write(tmp_path, "s.cfg", SOLVE_CFG.format(out=tmp_path / "run.csv"))
    assert main(["solve", "--config", cfg, "--manifest", str(tmp_path / "m.json")]) == 0
    assert events == ["started", "solve"]


def test_solve_with_energy_column(tmp_path):
    out = tmp_path / "run.csv"
    cfg = _write(
        tmp_path,
        "s.cfg",
        SOLVE_CFG.format(out=out) + "energy.s = 4\n",
    )
    assert main(["solve", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    first_row = lines[1].split(",")
    assert first_row[-1] != ""  # Es populated
    assert float(first_row[-1]) > 0.0


def test_solve_zero_ic(tmp_path):
    out = tmp_path / "run.csv"
    cfg = _write(
        tmp_path,
        "s.cfg",
        SOLVE_CFG.format(out=out).replace("ic.kind = cosine", "") + "ic.kind = zero\n",
    )
    assert main(["solve", "--config", cfg]) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_solve_zero_time_writes_the_initial_row(tmp_path):
    out = tmp_path / "run.csv"
    cfg = _write(tmp_path, "s.cfg", _solve_cfg(out, "time.T = 0"))
    assert main(["solve", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.0,")


def _csv_columns(path: Path) -> dict:
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


@pytest.mark.parametrize(
    "line, flow, u0",
    [
        ("flow.kind = regularized\nflow.mu = 0.01", regularized_flow(2, 0.01), 0.1 * cosine_field(64, 1)),
        ("flow.kind = hierarchy", hierarchy_flow(2), 0.1 * cosine_field(64, 1)),
        ("ic.kind = random\nic.kmax = 8", model_flow(2),
         random_decay_field(64, decay=5.0, seed=0, amplitude=0.1, kmax=8)),
    ],
)
def test_solve_flow_and_ic_kinds_match_the_library(tmp_path, line, flow, u0):
    out = tmp_path / "run.csv"
    assert main(["solve", "--config", _write(tmp_path, "s.cfg", SOLVE_CFG.format(out=out))]) == 0
    model = _csv_columns(out)
    assert main(["solve", "--config", _write(tmp_path, "k.cfg", _solve_cfg(out, line))]) == 0
    cols = _csv_columns(out)
    _, diag = solve(u0, flow, SolverConfig(n=64, dt=1e-3, t_final=0.01, diagnostics_every=5))
    expected = {"t": diag.times, "l2": diag.l2, **{f"H{m}": v for m, v in diag.hams.items()}}
    for name, values in expected.items():
        assert [float(v) for v in cols[name]] == values
    assert cols["l2"] != model["l2"]
def test_solve_with_a_huge_finite_damping_ends_cleanly(tmp_path, capsys):
    # mu = 1e150 gives a finite symbol (about 1e159 at k = 31), so it is
    # accepted; z^2 and z^3 in the phi closed forms overflow, and the
    # recurrence from phi_{j-1} keeps every coefficient finite.  The damping
    # empties every mode in the first step
    out = tmp_path / "run.csv"
    cfg = _write(tmp_path, "s.cfg", _solve_cfg(out, "flow.kind = regularized\nflow.mu = 1e150"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg]) == 0
    assert not [str(w.message) for w in caught]
    assert capsys.readouterr().err == ""
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[:2] == ["t", "l2"] and len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row if v)
    assert float(rows[-1][1]) == 0.0


def test_solve_of_a_high_order_model_flow_ends_cleanly(tmp_path, capsys):
    # (ik)^121 takes NumPy's polar path; a real part left by it would grow
    # every mode under the model sign and blow up in the first step
    out = tmp_path / "run.csv"
    cfg = _write(tmp_path, "s.cfg", _solve_cfg(out, "flow.l = 60\ngrid.N = 256"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg]) == 0
    assert not [str(w.message) for w in caught]
    assert capsys.readouterr().err == ""
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[:2] == ["t", "l2"] and len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row if v)


# ---------------------------------------------------------------------------
# refusals: every bad input exits 2 with one error line, no warning and
# nothing written
# ---------------------------------------------------------------------------


def _no_run(*args, **kwargs):
    raise AssertionError("bad input or a bad output destination reached the run")


def _singular(*args, **kwargs):
    raise SingularSystem("stage 3: bucket (1, (0,), 1) not cancelled")


def _tree(root: Path) -> dict:
    """Every path under root with its bytes (None for a directory)."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def _refused(tmp_path, capsys, monkeypatch, argv, stubs=(), line=r"error: .+"):
    """main(argv) exits 2 with one stderr line that matches line, no warning, and every path under tmp_path kept.

    Each stub names a function under kdvlab that the refusal must come before;
    it is replaced by _no_run, or by the function of a (name, function) pair.
    line may name tmp_path as {tmp}.
    """
    for stub in stubs:
        name, fake = (stub, _no_run) if isinstance(stub, str) else stub
        monkeypatch.setattr(f"kdvlab.{name}", fake)
    before = _tree(tmp_path)
    # pytest captures warnings before they reach stderr, so count them here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not [str(w.message) for w in caught]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(line.format(tmp=re.escape(str(tmp_path))), err[0]), err
    assert _tree(tmp_path) == before


# The refusal tables.  A row is (test, stubs, cases[, line]): the test that holds
# the cases, the stubs of _refused (the work each refusal must come before, so a
# lost refusal fails at once rather than running), and the cases, as a list (each
# its own id), a dict by id, or one case, which makes an unparametrized test.
# A test keeps its name and each case its id, the names CI logs and CHANGES.md use.
_BLOW_UP = r"error: blow-up at t = .+"

# config lines over SOLVE_CFG
SOLVE_REFUSALS = [
    ("test_unknown_config_key_is_an_error", (), "grid.M = 64"),
    # amplitude 100 at dt = 0.01 is far outside the stable step: a mode turns
    # non-finite within a few steps; only t = 0 is recorded before that
    ("test_solve_blow_up_exits_2_with_one_line", (),
     "ic.amplitude = 100\ntime.dt = 1e-2\ntime.T = 1\ndiagnostics.every = 1000", _BLOW_UP),
    # at amplitude 1e8 the state after one step is still finite, but its H2
    # overflows: the diagnostics (no H^s column, a record every step) report it
    ("test_solve_blow_up_in_diagnostics_exits_2_with_one_line", (),
     "time.dt = 1e-2\ntime.T = 1\nic.amplitude = 1e8\ndiagnostics.s =\ndiagnostics.every = 1", _BLOW_UP),
    ("test_solve_bad_input_exits_2_with_one_line", (), [
        "time.dt = inf", "time.dt = nan", "time.dt = 0",
        # T / dt overflows: the step count is refused, not converted to an int
        "time.dt = 1e-320",
        "time.T = inf", "diagnostics.every = 0", "integrator.order = 3", "grid.N = 128, 256",
        "diagnostics.s = nan", "diagnostics.s = inf", "diagnostics.s = 400",
        # the (1 + k^2)^s table is finite, the norm of the t = 0 state is not
        "time.T = 0\ndealias = 1\nic.kind = random\nic.decay = 0\nic.amplitude = 1e3\ndiagnostics.s = 102",
        "energy.s = nan", "energy.s = inf", "energy.s = 400",
        "flow.kind = regularized\nflow.mu = nan", "flow.kind = regularized\nflow.mu = inf",
        "ic.amplitude = inf", "ic.amplitude = nan",
        "ic.kind = random\nic.decay = nan", "ic.kind = random\nic.decay = inf",
        "flow.mu = 0.5", "flow.kind = hierarchy\nflow.mu = 0.5", "flow.kind = hierarchy\nenergy.s = 5",
        "energy.s = 3", "energy.s = 3.5",
        # mu k^6 overflows: the linear symbol is refused before the first step
        "flow.kind = regularized\nflow.mu = 1e300",
        # (ik)^401 overflows: refused before the nonlinearity's (ik)^399 table warns
        "flow.l = 200",
        # k^50 * 1e300 overflows: the random start is refused
        "ic.kind = random\nic.decay = -50\nic.amplitude = 1e300",
        "ic.kind = sine", "flow.kind = kdv",
    ]),
    # E^s at l = 2 needs s > 7/2: refused before the march, not at the first record
    ("test_solve_refuses_a_below_threshold_energy_s_before_any_step", ("cli.solve",), "energy.s = 3.5"),
    # 1e300 steps, 1.001e6 steps at dt = 1e-3 (above MAX_STEPS), 3.33 steps, a
    # level above MAX_LEVEL, an energy column above MAX_CASCADE or a grid above
    # MAX_GRID: refused before the flow or the energy is built or a step is taken
    ("test_solve_refuses_a_run_that_cannot_finish_before_any_step",
     ("hierarchy.lenard_step", "modenergy._quadratic_expansion", "cli.solve"),
     ["time.dt = 1e-300", "time.T = 1001", "time.dt = 0.3", "flow.kind = hierarchy\nflow.l = 40",
      "flow.kind = hierarchy\nflow.l = 300", "flow.l = 12\nenergy.s = 44\ngrid.N = 16", "grid.N = 4294967296"]),
    # (1 + k^2)^400 overflows on the grid: refused before the energy is built or a step is taken
    ("test_solve_refuses_an_overflowing_s_before_any_step", ("cli.build_energy", "cli.solve"),
     ["diagnostics.s = 400", "energy.s = 400"]),
]

# (experiment, config lines)
EXP_REFUSALS = [
    ("test_exp_bona_smith_grid_too_small_for_fit_exits_2", (),
     {line: ("bona-smith", line) for line in ["n = 8", "n = 256", "eps = 0.05", "eps = 0.05, 0", "eps = 0.05, 0.05"]}),
    ("test_exp_mu_cauchy_bad_mus_exits_2", (),
     {line: ("mu-cauchy", line) for line in ["mus = 0.01", "mus = 0.01, 0.01", "mus = 0.01, 0", "mus = 0.01, -0.005",
                                              "mus = 0.01, nan", "mus = 0.01, inf", "mus = 1e300, 1e299"]}),
    ("test_exp_bad_input_exits_2_before_solving", ("experiments.solve",), [
        ("energy-drift", "s = inf"), ("energy-drift", "s = 3.5"), ("energy-drift", "s = 400"),
        ("bona-smith", "s = nan"), ("bona-smith", "s = inf"), ("bona-smith", "s = 400"),
        ("conservation", "t_final = 0"), ("mu-cauchy", "t_final = 0"), ("energy-drift", "t_final = 0"),
        ("scaling", "t_final = 0"), ("scaling", "dt = 0"),
        # t_final / dt = 1e-9 rounds to no step
        ("conservation", "t_final = 1e-12"), ("mu-cauchy", "t_final = 1e-12"), ("energy-drift", "t_final = 1e-12"),
        ("scaling", "t_final = 1e-12"),
        # t_final / dt overflows
        ("conservation", "dt = 1e-320"), ("mu-cauchy", "dt = 1e-320"), ("energy-drift", "dt = 1e-320"),
        ("scaling", "dt = 1e-320"),
        # t_final / dt is finite but above the step bound
        ("conservation", "dt = 1e-300"), ("energy-drift", "dt = 1e-300"), ("scaling", "dt = 1e-300"),
        ("energy-drift", "contrast_k0 = 8"), ("energy-drift", "contrast_k0 = 8, 8"),
        ("bona-smith", "nus = 0"), ("bona-smith", "nus = 0.5, -1"), ("bona-smith", "betas = 0"),
        ("bona-smith", "betas = 0.5, -1"),
        ("energy-drift", "coercivity_amplitudes = 0"), ("energy-drift", "coercivity_amp_lo = 0"),
        ("energy-drift", "coercivity_amp_hi = -1"),
        ("bona-smith", "amplitude = 0"), ("bona-smith", "kmin = 1024"), ("bona-smith", "kmin = -1"),
        # the field's modes overflow (k^399.49), its norms overflow, its norms underflow to 0
        ("bona-smith", "s = -400"), ("bona-smith", "amplitude = 1e300"), ("bona-smith", "amplitude = 1e-320"),
        # E^s and the half-norm of the coercivity scan's largest state overflow
        ("energy-drift", "coercivity_amp_hi = 1e300"),
        # lam = 0 scales nothing, and dt / lam^{2l+1} would divide by zero
        ("scaling", "lam = 0"),
        # grids above MAX_GRID: the field (2^32 points, 32 GiB), the scaled grid
        # (64000 points) and the top contrast rung (8e12 and 800000 points)
        ("bona-smith", "n = 4294967296"), ("scaling", "lam = 1000"),
        ("energy-drift", "contrast_k0 = 8, 1000000000000"), ("energy-drift", "contrast_k0 = 8, 100000"),
    ]),
    ("test_exp_mu_cauchy_refuses_a_step_count_above_the_bound", ("experiments.solve_batch",),
     ("mu-cauchy", "dt = 1e-300")),
    # t_final / dt = 3.33 steps: refused before E^s is built or evaluated or a step is taken
    ("test_exp_refuses_a_fractional_step_count_before_any_work",
     ("experiments.build_energy", "experiments.evaluate_energy", "experiments.solve"),
     [("energy-drift", "dt = 0.3"), ("conservation", "dt = 0.3")]),
    # level 40 of the Lenard recursion would take days, the cascade at l = 9
    # already 8 s: refused before either is built
    ("test_exp_conservation_refuses_a_level_above_the_bound",
     ("hierarchy.lenard_step", "modenergy._quadratic_expansion", "experiments.solve"),
     {"l = 40": ("conservation", "l = 40"), "l = 300": ("conservation", "l = 300"),
      "energy-drift l = 12 s = 44": ("energy-drift", "l = 12\ns = 44")}),
    # (ik)^601 overflows: the stepper refuses the symbol before the
    # nonlinearity's (ik)^599 table is formed
    ("test_exp_overflowing_symbol_exits_2_without_a_warning", (),
     {name: (name, "l = 300") for name in ["mu-cauchy", "scaling"]}),
    ("test_exp_list_for_scalar_key_exits_2", (), ("scaling", "n = 64, 128")),
]


def _solve_to(tmp_path, out, *argv):
    """kdvlab solve of SOLVE_CFG writing to out, from s.cfg in tmp_path."""
    return ["solve", "--config", _write(tmp_path, "s.cfg", SOLVE_CFG.format(out=out)), *argv]


def _bona_smith(tmp_path, *argv):
    """kdvlab exp bona-smith beside a file of tmp_path that must be kept."""
    _write(tmp_path, "file", "kept\n")
    return ["exp", "bona-smith", *argv]


def _bona_smith_from(tmp_path, name, *argv):
    """kdvlab exp bona-smith with its config at tmp_path / name."""
    return ["exp", "bona-smith", "--config", _write(tmp_path, name, "n = 128\n"), *argv]


def _around(tmp_path):
    """tmp_path by another path."""
    return f"{tmp_path}/../{tmp_path.name}"


# argv built from tmp_path
ARGV_REFUSALS = [
    ("test_a_line_with_an_empty_key_exits_2_naming_its_line", ("cli.solve",),
     lambda p: ["solve", "--config", _write(p, "e.cfg", "= 5\n")], r"error: {tmp}/e\.cfg:1: empty key"),
    ("test_energy_build_below_threshold_is_an_error", (), lambda p: ["energy", "build", "--l", "2", "--s", "3.5"]),
    ("test_bad_argument_exits_2_with_one_line", (), {
        "argv0": lambda p: ["ibp", "alpha", "--l", "0"],
        "argv1": lambda p: ["ibp", "alpha", "--l", "-2", "--verify"],
        "argv2": lambda p: ["energy", "build", "--l", "2", "--s", "inf"],
        "argv3": lambda p: ["energy", "build", "--l", "2", "--s", "nan"],
        "argv4": lambda p: ["energy", "build", "--l", "3", "--s", "1e200"],
    }),
    ("test_singular_system_exits_2_with_one_line", (("cli.build_energy", _singular),),
     lambda p: ["energy", "build", "--l", "2"]),
    ("test_hierarchy_gen_refuses_a_level_above_the_bound", ("hierarchy.lenard_step",),
     lambda p: ["hierarchy", "gen", "--l", "40", "--out", str(p / "g.txt")]),
    # the cascade at l = 9 already takes 8 s; the alpha table is read before the
    # Euler check, so --verify meets the same bound: refused before either recursion
    ("test_an_exact_recursion_above_its_bound_is_refused", ("modenergy._quadratic_expansion", "ibpcalc.comb"), {
        "argv0": lambda p: ["energy", "build", "--l", "12", "--out", str(p / "out.json")],
        "argv1": lambda p: ["energy", "build", "--l", "40", "--out", str(p / "out.json")],
        "argv2": lambda p: ["ibp", "alpha", "--l", "400", "--out", str(p / "out.json")],
        "argv3": lambda p: ["ibp", "alpha", "--l", "400", "--verify", "--out", str(p / "out.json")],
    }),
    ("test_solve_checks_its_destinations_before_any_step", ("cli.solve",), {
        "output-dir-missing": lambda p: _solve_to(p, p / "missing" / "run.csv"),
        "output-is-a-dir": lambda p: _solve_to(p, p),
        "manifest-dir-missing": lambda p: _solve_to(p, p / "run.csv", "--manifest", str(p / "missing" / "m.json")),
        "manifest-is-the-output": lambda p: _solve_to(p, p / "run.csv", "--manifest", str(p / "run.csv")),
        "manifest-is-the-output-by-another-path":
            lambda p: _solve_to(p, p / "run.csv", "--manifest", f"{_around(p)}/run.csv"),
    }),
    ("test_exp_checks_its_destinations_before_running", ("cli.run_experiment",), {
        "manifest-dir-missing":
            lambda p: _bona_smith(p, "--out", str(p / "out"), "--manifest", str(p / "missing" / "m.json")),
        "manifest-is-a-dir": lambda p: _bona_smith(p, "--out", str(p / "out"), "--manifest", str(p)),
        "out-is-a-file": lambda p: _bona_smith(p, "--out", str(p / "file")),
        "out-under-a-file": lambda p: _bona_smith(p, "--out", str(p / "file" / "sub")),
        "out-deep-under-a-file": lambda p: _bona_smith(p, "--out", str(p / "file" / "sub" / "deeper")),
        "manifest-is-a-table":
            lambda p: _bona_smith(p, "--out", str(p), "--manifest", str(p / "bona_smith_growth.csv")),
        "manifest-is-the-result":
            lambda p: _bona_smith(p, "--out", str(p), "--manifest", f"{_around(p)}/bona_smith.json"),
    }),
    ("test_solve_refuses_an_output_over_its_config", ("cli.solve",), {
        "output-is-the-config": lambda p: _solve_to(p, f"{_around(p)}/s.cfg"),
        "manifest-is-the-config": lambda p: _solve_to(p, p / "run.csv", "--manifest", str(p / "s.cfg")),
    }),
    ("test_exp_refuses_an_output_over_its_config", ("cli.run_experiment",), {
        "manifest-is-the-config-e.cfg":
            lambda p: _bona_smith_from(p, "e.cfg", "--out", str(p / "out"), "--manifest", str(p / "e.cfg")),
        "result-is-the-config-bona_smith.json": lambda p: _bona_smith_from(p, "bona_smith.json", "--out", _around(p)),
        "table-is-the-config-bona_smith_growth.csv":
            lambda p: _bona_smith_from(p, "bona_smith_growth.csv", "--out", _around(p)),
        "default-manifest-is-the-config-bona_smith_manifest.json":
            lambda p: _bona_smith_from(p, "bona_smith_manifest.json", "--out", _around(p)),
    }),
    ("test_a_key_given_twice_exits_2_before_running", ("cli.solve", "cli.run_experiment"), {
        "solve-time.T = 0.02":
            lambda p: ["solve", "--config", _write(p, "twice.cfg", "time.T = 0.02\ntime.T = 0.02\n")],
        "exp-n = 128": lambda p: ["exp", "bona-smith", "--out", str(p / "out"),
                                  "--config", _write(p, "twice.cfg", "n = 128\nn = 128\n")],
    }),
    ("test_out_is_checked_before_any_work", ("cli.level", "cli.alpha_coeffs", "cli.build_energy"), {
        "hierarchy-gen-missing-dir": lambda p: ["hierarchy", "gen", "--l", "3", "--out", str(p / "missing" / "x.json")],
        "hierarchy-gen-a-directory": lambda p: ["hierarchy", "gen", "--l", "3", "--out", str(p)],
        "ibp-alpha-missing-dir":
            lambda p: ["ibp", "alpha", "--l", "3", "--verify", "--out", str(p / "missing" / "x.json")],
        "ibp-alpha-a-directory": lambda p: ["ibp", "alpha", "--l", "3", "--verify", "--out", str(p)],
        "energy-build-missing-dir":
            lambda p: ["energy", "build", "--l", "5", "--out", str(p / "missing" / "x.json")],
        "energy-build-a-directory": lambda p: ["energy", "build", "--l", "5", "--out", str(p)],
    }),
]


def _define(table, argv_of, id_of=None):
    """Define each test of a refusal table in this module; argv_of(tmp_path, case) is a case's command line."""
    for test, stubs, cases, *line in table:
        if isinstance(cases, list):
            cases = {id_of(case): case for case in cases}
        elif not isinstance(cases, dict):
            cases = {pytest.HIDDEN_PARAM: cases}
        globals()[test] = _refusal_test(argv_of, stubs, cases, *line)


def _refusal_test(argv_of, stubs, cases, *line):
    @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
    def test(tmp_path, capsys, monkeypatch, case):
        _refused(tmp_path, capsys, monkeypatch, argv_of(tmp_path, case), stubs, *line)

    return test


def _solve_argv(tmp_path, lines):
    return ["solve", "--config", _write(tmp_path, "s.cfg", _solve_cfg(tmp_path / "run.csv", lines))]


def _exp_argv(tmp_path, case):
    name, lines = case
    return ["exp", name, "--config", _write(tmp_path, "e.cfg", lines + "\n"), "--out", str(tmp_path / "out")]


_define(SOLVE_REFUSALS, _solve_argv, str)
_define(EXP_REFUSALS, _exp_argv, "-".join)
_define(ARGV_REFUSALS, lambda tmp_path, argv_of: argv_of(tmp_path))


def test_the_run_bounds_admit_every_tier1_run(monkeypatch):
    # levels 0..12 (generate(12) and the level digests), the 6400 steps of the
    # longest solve, blueprints to l = 7, alpha tables to l = 12 and exp
    # bona-smith's 2048 points; the bounds are inclusive (a run at each bound
    # passes its check and reaches the stubbed recursion, or is built), and one
    # above each is refused before any work
    top, most = hierarchy.MAX_LEVEL, spectral.MAX_STEPS
    cascade, alpha, points = modenergy.MAX_CASCADE, ibpcalc.MAX_ALPHA, spectral.MAX_GRID
    assert top >= 12 and most >= 6400
    assert cascade >= 7 and alpha >= 12 and points >= 2048
    monkeypatch.setattr(hierarchy, "_LEVELS", [])
    monkeypatch.setattr(hierarchy, "lenard_step", _no_run)
    monkeypatch.setattr(modenergy, "_quadratic_expansion", _no_run)
    monkeypatch.setattr(ibpcalc, "_TABLES", {})
    monkeypatch.setattr(ibpcalc, "comb", _no_run)
    for run in (lambda: hierarchy.generate(top), lambda: modenergy.build_energy(cascade),
                lambda: ibpcalc.alpha_coeffs(alpha)):
        with pytest.raises(AssertionError, match="reached the run"):
            run()
    with pytest.raises(ValueError, match="level bound"):
        hierarchy.generate(top + 1)
    SolverConfig(dt=1.0, t_final=float(most))
    with pytest.raises(ValueError, match="step count"):
        SolverConfig(dt=1.0, t_final=float(most + 1))
    with pytest.raises(ValueError, match="cascade level"):
        modenergy.build_energy(cascade + 1)
    with pytest.raises(ValueError, match="identity level"):
        ibpcalc.alpha_coeffs(alpha + 1)
    SolverConfig(n=points)
    cosine_field(points)
    for run in (lambda: SolverConfig(n=points + 2), lambda: cosine_field(points + 2)):
        with pytest.raises(ValueError, match="grid size"):
            run()


def test_exp_manifest_in_an_existing_directory(tmp_path):
    out_dir = tmp_path / "new" / "res"
    argv = ["exp", "bona-smith", "--out", str(out_dir), "--manifest", str(tmp_path / "m.json")]
    assert main(argv) == 0
    man = json.loads((tmp_path / "m.json").read_text())
    assert man["verdict"] == "PASS" and str(out_dir / "bona_smith.json") in man["outputs"]
    assert not (out_dir / "bona_smith_manifest.json").exists()


# ---------------------------------------------------------------------------
# experiments: pipeline behavior on degenerate inputs (fast settings)
# ---------------------------------------------------------------------------


def test_conservation_zero_data_has_zero_drift():
    r = exp_conservation({"amplitude": 0.0, "n": 64, "t_final": 0.05})
    assert r.verdict
    assert all(r.metrics[k] == 0.0 for k in r.metrics if k.startswith("drift_H"))


def test_mu_cauchy_zero_data_distances_vanish():
    r = exp_mu_cauchy({"amplitude": 0.0, "n": 64, "t_final": 0.05, "cadence": 25})
    assert r.verdict
    assert all(row[2] == 0.0 for row in r.tables["distances"][1])


def test_mu_cauchy_distances_match_sequential_solves():
    # the ladder marched as one batch gives, bit for bit, the table that one
    # solve per mu and a sup over the stored states give
    r = exp_mu_cauchy({"n": 32, "t_final": 0.02, "cadence": 4, "mus": (1e-2, 3e-3)})
    cfg = r.config
    u0 = cfg["amplitude"] * cosine_field(cfg["n"], 1)
    sc = SolverConfig(
        n=cfg["n"], dt=cfg["dt"], t_final=cfg["t_final"], dealias=cfg["dealias"],
        order=cfg["order"], diagnostics_every=cfg["cadence"], hamiltonians=(),
    )
    rows = []
    for mu in cfg["mus"]:
        states = {}
        for m in (mu, mu / 2):
            states[m] = []
            solve(u0, regularized_flow(cfg["l"], m), sc, states[m].append)
        d = max(
            sobolev_norm(SpectralField(cfg["n"], a.modes - b.modes), 0.0)
            for a, b in zip(states[mu], states[mu / 2])
        )
        rows.append([mu, mu / 2, d])
    assert len(states[mu]) == 6
    assert r.tables["distances"][1] == rows


def test_scaling_identity_map_is_exact():
    r = exp_scaling({"lam": 1, "n": 32, "t_final": 0.1, "dt": 2e-3})
    assert r.verdict
    assert r.metrics["max_rel_grid_error"] == 0.0


def test_scaling_zero_data():
    # zero is a fixed point of both runs: the error is 0, not 0/0
    r = exp_scaling({"amplitude": 0.0, "n": 32, "t_final": 0.1})
    assert r.verdict
    assert r.metrics["max_rel_grid_error"] == 0.0


def test_energy_drift_zero_data():
    r = exp_energy_drift(
        {"amplitude": 0.0, "n": 64, "t_final": 0.05, "cadence": 25, "kmax": 16,
         "contrast_k0": (4, 8)}
    )
    assert r.metrics["energy_drift"] == 0.0
    assert r.metrics["empirical_C"] == 0.0


# ---------------------------------------------------------------------------
# the log-log rate fit
# ---------------------------------------------------------------------------


def _default_fit_ladders():
    """The (x, y) points of every rate fit that exp mu-cauchy and exp bona-smith make at their defaults."""
    rows = exp_mu_cauchy().tables["distances"][1]
    ladders = [([row[0] for row in rows], [row[2] for row in rows])]
    for _, rows in exp_bona_smith().tables.values():
        for p in sorted({row[0] for row in rows}):
            ladders.append(([row[1] for row in rows if row[0] == p], [row[2] for row in rows if row[0] == p]))
    return ladders


def _seeded_fit_ladders(count=20):
    """Ladders of 3..8 points drawn with repeats from 2 or more distinct x values, y about a power of x."""
    rng = np.random.default_rng(20261020)
    for _ in range(count):
        size = int(rng.integers(3, 9))
        pool = np.exp(rng.uniform(-8.0, 3.0, size=int(rng.integers(2, size))))
        xs = np.concatenate([pool[:2], rng.choice(pool, size=size - 2)])
        slope = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        ys = np.exp(slope * np.log(xs) + rng.uniform(-5.0, 5.0) + rng.normal(0.0, 0.1, size=size))
        yield xs.tolist(), ys.tolist()


def test_loglog_slope_is_the_least_squares_slope():
    # np.polyfit is the oracle: the closed form sum dx dy / sum dx^2 agrees to
    # 1e-12, on the default ladders (5 points for mu-cauchy, 4 for each of
    # bona-smith's four fits) and on seeded ones that repeat x values
    defaults = _default_fit_ladders()
    assert [len(xs) for xs, _ in defaults] == [5, 4, 4, 4, 4]
    for xs, ys in defaults + list(_seeded_fit_ladders()):
        want = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        assert abs(_loglog_slope(xs, ys) - want) <= 1e-12 * abs(want), (xs, ys)


@pytest.mark.parametrize("name", ["mu-cauchy", "bona-smith"])
def test_rate_fits_pass_without_lapack(tmp_path, monkeypatch, capsys, name):
    # the fits start no LAPACK routine; np.polyfit is refused too, since it
    # holds its own reference to lstsq
    def refuse(*args, **kwargs):
        raise AssertionError("a rate fit called LAPACK")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    assert main(["exp", name, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"{name}: PASS"


# ---------------------------------------------------------------------------
# exp subcommand end to end
# ---------------------------------------------------------------------------


def test_exp_scaling_end_to_end(tmp_path):
    out_dir = tmp_path / "res"
    code = main(["exp", "scaling", "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "scaling.json").read_text())
    assert report["verdict"] == "PASS"
    man = json.loads((out_dir / "scaling_manifest.json").read_text())
    assert man["verdict"] == "PASS"
    assert str(out_dir / "scaling.json") in man["outputs"]


def test_exp_energy_drift_prints_its_flag_as_0_or_1(tmp_path, capsys):
    # contrast_monotone is a bool: a metric line reads 1 or 0, never True or False
    assert main(["exp", "energy-drift", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "energy-drift: PASS"
    assert "  contrast_monotone = 1" in out


def test_exp_fail_exit_code_and_manifest(tmp_path):
    # an impossible threshold forces FAIL -> exit 1, recorded in the manifest
    cfg = _write(tmp_path, "c.cfg", "drift_tol = 0\nn = 64\nt_final = 0.05\n")
    out_dir = tmp_path / "res"
    code = main(["exp", "conservation", "--config", cfg, "--out", str(out_dir)])
    assert code == 1
    man = json.loads((out_dir / "conservation_manifest.json").read_text())
    assert man["verdict"] == "FAIL"
    assert man["config"]["drift_tol"] == 0.0


def test_exp_conservation_csv_shape(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "n = 64\nt_final = 0.05\ncadence = 10\n")
    out_dir = tmp_path / "res"
    code = main(["exp", "conservation", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "conservation_series.csv").read_text().splitlines()
    assert lines[0] == "t,l2,H0,H1,H2"
    assert len(lines) >= 3
