import json

import pytest

from lipsurf.cli import main
from lipsurf.harness import run_experiment


def test_sample_json(capsys):
    assert main(["sample", "--d", "2", "--p", "0.9", "--seed", "1",
                 "--box-margin", "2", "--box-height", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"box", "states"}
    assert len(out["states"]) == 5 * 3
    assert set(out["states"]) <= {0, 1}


def test_sample_csv(capsys):
    assert main(["sample", "--format", "csv", "--box-margin", "1",
                 "--box-height", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "site,state"
    assert len(lines) == 1 + 3 * 2


def test_surface_json(capsys):
    assert main(["surface", "--d", "2", "--p", "0.99", "--seed", "3",
                 "--base-radius", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["columns"]) == 7
    assert all(v >= 1 for v in out["values"])
    assert out["method"] == "via-floor-reach"


def test_cover_json(capsys):
    assert main(["cover", "--d", "2", "--p", "0.99", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["center"] == [0]
    assert out["cover_radius"] >= 1


def test_bounds_json(capsys):
    assert main(["bounds", "--d", "2", "--p", "0.99"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["steps_per_site"] == 4
    assert abs(out["prefactor"] - 1.240079) < 1e-5
    assert out["hypothesis_ok"] is True


def test_tails_csv(capsys):
    assert main(["tails", "--kind", "radh_tail", "--d", "2", "--p", "0.99",
                 "--seed", "2", "--replicates", "200", "--kmax", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k,trials,hits_lo")
    assert len(lines) == 4


def test_tails_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "radh_tail", "d": 2, "p": 0.99,
                               "replicates": 100, "seed": 1, "k_max": 1}))
    out_file = tmp_path / "rows.csv"
    assert main(["tails", "--config", str(cfg), "--out", str(out_file)]) == 0
    assert out_file.exists()
    assert (tmp_path / "rows.csv.meta.json").exists()


def test_brw_csv(capsys):
    assert main(["brw", "--d", "2", "--p", "0.99", "--seed", "1",
                 "--runs", "100", "--generations", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mean_S,se_S,alpha_pow_n,survival_hat,survival_ci_hi,bound"
    assert len(lines) == 5


def test_existence_csv(capsys):
    assert main(["existence", "--d", "2", "--p-grid", "0.95,0.999",
                 "--seed", "2", "--replicates", "5", "--base-radius", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,successes,trials,fraction,regime"
    assert len(lines) == 3


def test_exit_code_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "f_tail", "replicates": "many"}))
    assert main(["tails", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "replicates" in err


def test_exit_code_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps({"kind": "f_tail", "banana": 1}))
    assert main(["tails", "--config", str(cfg)]) == 1
    assert "banana" in capsys.readouterr().err


def test_exit_code_hypothesis_violation(capsys):
    # a^2 q = 1.6 >= 1 at d=2, p=0.9
    assert main(["tails", "--kind", "f_tail", "--d", "2", "--p", "0.9",
                 "--replicates", "10"]) == 2


def test_exit_code_budget_exhausted(tmp_path, capsys):
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({
        "kind": "f_tail", "d": 2, "p": 0.95, "replicates": 300, "seed": 5,
        "k_max": 4, "box_height": 3, "box_margin": 1, "growth_cap": 0,
        "unresolved_threshold": 0.0001}))
    assert main(["tails", "--config", str(cfg)]) == 3


def test_exit_code_usage_error(capsys):
    assert main(["no-such-command"]) == 1


def test_oracle_subcommand(capsys):
    assert main(["oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True
    assert len(out["checks"]) == 7


# (argv, the run_experiment config those flags stand for)
_RUN_CASES = {
    "f_tail": (["tails", "--kind", "f_tail", "--seed", "3", "--replicates", "200",
                "--kmax", "3"],
               {"kind": "f_tail", "seed": 3, "replicates": 200, "k_max": 3}),
    "radh_tail": (["tails", "--kind", "radh_tail", "--seed", "2", "--replicates",
                   "100", "--kmax", "2", "--box-margin", "4", "--box-height", "4",
                   "--growth-cap", "5"],
                  {"kind": "radh_tail", "seed": 2, "replicates": 100, "k_max": 2,
                   "box_margin": 4, "box_height": 4, "growth_cap": 5}),
    "rho_tail": (["tails", "--kind", "rho_tail", "--seed", "2", "--replicates",
                  "100", "--kmax", "2", "--box-margin", "4", "--box-height", "4",
                  "--growth-cap", "5"],
                 {"kind": "rho_tail", "seed": 2, "replicates": 100, "k_max": 2,
                  "box_margin": 4, "box_height": 4, "growth_cap": 5}),
    "brw": (["brw", "--seed", "1", "--runs", "100", "--generations", "3"],
            {"kind": "brw", "seed": 1, "runs": 100, "generations": 3}),
    "existence": (["existence", "--p-grid", "0.6,0.95,0.999", "--seed", "2",
                   "--replicates", "5", "--base-radius", "2"],
                  {"kind": "existence_curve", "p_grid": [0.6, 0.95, 0.999],
                   "seed": 2, "replicates": 5, "base_radius": 2}),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_run_subcommands_match_run_experiment(case, fmt, tmp_path, capsys):
    """tails, brw and existence print the body run_experiment returns (JSON
    compact on stdout) and write to --out the body run_experiment writes."""
    argv, config = _RUN_CASES[case]
    config = dict(config, format=fmt)
    result = run_experiment(config, out_path=str(tmp_path / "want"))
    want_stdout = (result["csv"] if fmt == "csv"
                   else json.dumps(result["payload"], sort_keys=True) + "\n")
    assert main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == want_stdout
    got = tmp_path / "got"
    assert main(argv + ["--format", fmt, "--out", str(got)]) == 0
    assert capsys.readouterr().out == ""
    assert got.read_bytes() == (tmp_path / "want").read_bytes()
    assert (tmp_path / "got.meta.json").exists()
