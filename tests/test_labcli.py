"""Command-line interface and experiment pipelines.

Covers config parsing, exit-code policy (0 pass / 1 fail / 2 error), CSV
shapes, byte-level determinism of repeated runs, manifest emission, and the
degenerate-input behavior of each experiment.
"""

import json
import warnings
from pathlib import Path

import pytest

from kdvlab import cli
from kdvlab.cli import main, parse_flat_config
from kdvlab.experiments import (
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


def test_unknown_config_key_is_an_error(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "grid.M = 64\noutput.path = x.csv\n")
    assert main(["solve", "--config", cfg]) == 2


def test_unknown_experiment_key_is_an_error(tmp_path):
    with pytest.raises(KeyError):
        run_experiment("scaling", {"lambda": 2})


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


def test_energy_build_below_threshold_is_an_error():
    assert main(["energy", "build", "--l", "2", "--s", "3.5"]) == 2


def _one_error_line(capsys) -> bool:
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["ibp", "alpha", "--l", "0"],
        ["ibp", "alpha", "--l", "-2", "--verify"],
        ["energy", "build", "--l", "2", "--s", "inf"],
        ["energy", "build", "--l", "2", "--s", "nan"],
    ],
)
def test_bad_argument_exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    assert _one_error_line(capsys)


def test_singular_system_exits_2_with_one_line(capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularSystem("stage 3: bucket (1, (0,), 1) not cancelled")

    monkeypatch.setattr(cli, "build_energy", singular)
    assert main(["energy", "build", "--l", "2"]) == 2
    assert _one_error_line(capsys)


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


def test_solve_blow_up_exits_2_with_one_line(tmp_path, capsys):
    # amplitude 100 at dt = 0.01 is far outside the stable step: a mode turns
    # non-finite within a few steps; only t = 0 is recorded before that
    out = tmp_path / "run.csv"
    extra = "ic.amplitude = 100\ntime.dt = 1e-2\ntime.T = 1\ndiagnostics.every = 1000\n"
    cfg = _write(tmp_path, "s.cfg", _solve_cfg(out, extra))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg]) == 2
    assert not [str(w.message) for w in caught]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: blow-up at t = ")
    assert not out.exists()


def test_solve_blow_up_in_diagnostics_exits_2_with_one_line(tmp_path, capsys):
    # at amplitude 1e8 the state after one step is still finite, but its H2
    # overflows: the diagnostics report the blow-up, not a NumPy warning
    out = tmp_path / "run.csv"
    text = (
        "flow.kind = model\nflow.l = 2\ngrid.N = 64\ntime.dt = 1e-2\ntime.T = 1\n"
        f"ic.amplitude = 1e8\noutput.path = {out}\n"
    )
    cfg = _write(tmp_path, "s.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg]) == 2
    assert not [str(w.message) for w in caught]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: blow-up at t = ")
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "time.dt = inf",
        "time.dt = nan",
        "time.dt = 0",
        "time.T = inf",
        "diagnostics.every = 0",
        "integrator.order = 3",
        "grid.N = 128, 256",
        "diagnostics.s = nan",
        "diagnostics.s = inf",
        "energy.s = nan",
        "energy.s = inf",
        "flow.kind = regularized\nflow.mu = nan",
        "flow.kind = regularized\nflow.mu = inf",
        "ic.amplitude = inf",
        "ic.amplitude = nan",
        "ic.kind = random\nic.decay = nan",
        "ic.kind = random\nic.decay = inf",
        "flow.mu = 0.5",
        "flow.kind = hierarchy\nflow.mu = 0.5",
        "flow.kind = hierarchy\nenergy.s = 5",
    ],
)
def test_solve_bad_input_exits_2_with_one_line(tmp_path, capsys, line):
    out = tmp_path / "run.csv"
    cfg = _write(tmp_path, "s.cfg", _solve_cfg(out, line))
    # pytest captures warnings before they reach stderr, so count them here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg]) == 2
    assert not [str(w.message) for w in caught]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def _no_run(*args, **kwargs):
    raise AssertionError("a bad output destination reached the run")


@pytest.mark.parametrize(
    "case",
    ["output-dir-missing", "output-is-a-dir", "manifest-dir-missing", "manifest-is-the-output",
     "manifest-is-the-output-by-another-path"],
)
def test_solve_checks_its_destinations_before_any_step(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "solve", _no_run)
    out, missing = tmp_path / "run.csv", tmp_path / "missing"
    path, argv = {
        "output-dir-missing": (missing / "run.csv", []),
        "output-is-a-dir": (tmp_path, []),
        "manifest-dir-missing": (out, ["--manifest", str(missing / "m.json")]),
        "manifest-is-the-output": (out, ["--manifest", str(out)]),
        "manifest-is-the-output-by-another-path": (out, ["--manifest", f"{tmp_path}/../{tmp_path.name}/run.csv"]),
    }[case]
    cfg = _write(tmp_path, "s.cfg", SOLVE_CFG.format(out=path))
    assert main(["solve", "--config", cfg, *argv]) == 2
    assert _one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]


@pytest.mark.parametrize(
    "case",
    ["manifest-dir-missing", "manifest-is-a-dir", "out-is-a-file", "out-under-a-file", "out-deep-under-a-file",
     "manifest-is-a-table", "manifest-is-the-result"],
)
def test_exp_checks_its_destinations_before_running(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    (tmp_path / "file").write_text("kept\n")
    argv = {
        "manifest-dir-missing": ["--out", str(tmp_path / "out"), "--manifest", str(tmp_path / "missing" / "m.json")],
        "manifest-is-a-dir": ["--out", str(tmp_path / "out"), "--manifest", str(tmp_path)],
        "out-is-a-file": ["--out", str(tmp_path / "file")],
        "out-under-a-file": ["--out", str(tmp_path / "file" / "sub")],
        "out-deep-under-a-file": ["--out", str(tmp_path / "file" / "sub" / "deeper")],
        "manifest-is-a-table": ["--out", str(tmp_path), "--manifest", str(tmp_path / "bona_smith_growth.csv")],
        "manifest-is-the-result": ["--out", str(tmp_path), "--manifest", f"{tmp_path}/../{tmp_path.name}/bona_smith.json"],
    }[case]
    assert main(["exp", "bona-smith", *argv]) == 2
    assert _one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("case", ["output-is-the-config", "manifest-is-the-config"])
def test_solve_refuses_an_output_over_its_config(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "solve", _no_run)
    cfg = tmp_path / "s.cfg"
    out, argv = {
        "output-is-the-config": (f"{tmp_path}/../{tmp_path.name}/s.cfg", []),
        "manifest-is-the-config": (tmp_path / "run.csv", ["--manifest", str(cfg)]),
    }[case]
    text = SOLVE_CFG.format(out=out)
    cfg.write_text(text)
    assert main(["solve", "--config", str(cfg), *argv]) == 2
    assert _one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]
    assert cfg.read_text() == text


@pytest.mark.parametrize(
    "case, name",
    [("manifest-is-the-config", "e.cfg"), ("result-is-the-config", "bona_smith.json"),
     ("table-is-the-config", "bona_smith_growth.csv"), ("default-manifest-is-the-config", "bona_smith_manifest.json")],
)
def test_exp_refuses_an_output_over_its_config(tmp_path, capsys, monkeypatch, case, name):
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    cfg = tmp_path / name
    cfg.write_text("n = 128\n")
    argv = ["--out", str(tmp_path / "out"), "--manifest", str(cfg)] if case == "manifest-is-the-config" else [
        "--out", f"{tmp_path}/../{tmp_path.name}"]
    assert main(["exp", "bona-smith", "--config", str(cfg), *argv]) == 2
    assert _one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    assert cfg.read_text() == "n = 128\n"


@pytest.mark.parametrize("cmd, line", [("solve", "time.T = 0.02"), ("exp", "n = 128")])
def test_a_key_given_twice_exits_2_before_running(tmp_path, capsys, monkeypatch, cmd, line):
    monkeypatch.setattr(cli, "solve", _no_run)
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    cfg = _write(tmp_path, "twice.cfg", f"{line}\n{line}\n")
    argv = {"solve": ["solve"], "exp": ["exp", "bona-smith", "--out", str(tmp_path / "out")]}[cmd]
    assert main([*argv, "--config", cfg]) == 2
    assert _one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["twice.cfg"]


@pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
@pytest.mark.parametrize(
    "argv, work",
    [
        (["hierarchy", "gen", "--l", "3"], "level"),
        (["ibp", "alpha", "--l", "3", "--verify"], "alpha_coeffs"),
        (["energy", "build", "--l", "5"], "build_energy"),
    ],
    ids=["hierarchy-gen", "ibp-alpha", "energy-build"],
)
def test_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, work, target):
    monkeypatch.setattr(cli, work, _no_run)
    out = {"missing-dir": tmp_path / "missing" / "x.json", "a-directory": tmp_path}[target]
    assert main([*argv, "--out", str(out)]) == 2
    assert _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("line", ["n = 8", "n = 256", "eps = 0.05", "eps = 0.05, 0", "eps = 0.05, 0.05"])
def test_exp_bona_smith_grid_too_small_for_fit_exits_2(tmp_path, capsys, line):
    cfg = _write(tmp_path, "b.cfg", line + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["exp", "bona-smith", "--config", cfg, "--out", str(out)]) == 2
    assert not [str(w.message) for w in caught]
    assert _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "mus = 0.01",
        "mus = 0.01, 0.01",
        "mus = 0.01, 0",
        "mus = 0.01, -0.005",
        "mus = 0.01, nan",
        "mus = 0.01, inf",
    ],
)
def test_exp_mu_cauchy_bad_mus_exits_2(tmp_path, capsys, line):
    cfg = _write(tmp_path, "m.cfg", line + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["exp", "mu-cauchy", "--config", cfg, "--out", str(out)]) == 2
    assert not [str(w.message) for w in caught]
    assert _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "name, line",
    [
        ("energy-drift", "s = inf"),
        ("bona-smith", "s = nan"),
        ("bona-smith", "s = inf"),
        ("conservation", "t_final = 0"),
        ("mu-cauchy", "t_final = 0"),
        ("energy-drift", "t_final = 0"),
        ("scaling", "t_final = 0"),
        ("scaling", "dt = 0"),
        ("energy-drift", "contrast_k0 = 8"),
        ("energy-drift", "contrast_k0 = 8, 8"),
        ("bona-smith", "nus = 0"),
        ("bona-smith", "nus = 0.5, -1"),
        ("bona-smith", "betas = 0"),
        ("bona-smith", "betas = 0.5, -1"),
        ("energy-drift", "coercivity_amplitudes = 0"),
        ("energy-drift", "coercivity_amp_lo = 0"),
        ("energy-drift", "coercivity_amp_hi = -1"),
        ("bona-smith", "amplitude = 0"),
        ("bona-smith", "kmin = 1024"),
        ("bona-smith", "kmin = -1"),
    ],
)
def test_exp_bad_input_exits_2_before_solving(tmp_path, capsys, monkeypatch, name, line):
    def no_solve(*args, **kwargs):
        raise AssertionError("bad input reached the solver")

    monkeypatch.setattr("kdvlab.experiments.solve", no_solve)
    cfg = _write(tmp_path, "e.cfg", line + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["exp", name, "--config", cfg, "--out", str(out)]) == 2
    assert not [str(w.message) for w in caught]
    assert _one_error_line(capsys)
    assert not out.exists()


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


def test_exp_fail_exit_code_and_manifest(tmp_path):
    # an impossible threshold forces FAIL -> exit 1, recorded in the manifest
    cfg = _write(tmp_path, "c.cfg", "drift_tol = 0\nn = 64\nt_final = 0.05\n")
    out_dir = tmp_path / "res"
    code = main(["exp", "conservation", "--config", cfg, "--out", str(out_dir)])
    assert code == 1
    man = json.loads((out_dir / "conservation_manifest.json").read_text())
    assert man["verdict"] == "FAIL"
    assert man["config"]["drift_tol"] == 0.0


def test_exp_list_for_scalar_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "n = 64, 128\n")
    out_dir = tmp_path / "res"
    assert main(["exp", "scaling", "--config", cfg, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out_dir.exists()


def test_exp_conservation_csv_shape(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "n = 64\nt_final = 0.05\ncadence = 10\n")
    out_dir = tmp_path / "res"
    code = main(["exp", "conservation", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "conservation_series.csv").read_text().splitlines()
    assert lines[0] == "t,l2,H0,H1,H2"
    assert len(lines) >= 3
