import functools
import hashlib
import json

import numpy as np
import pytest

from lipsurf import cli, harness
from lipsurf.cli import main
from lipsurf.harness import cover_sweep, run_experiment
from lipsurf.lattice import BoxRegion, PercolationField


def test_sample_json(capsys):
    assert main(["sample", "--d", "2", "--p", "0.9", "--seed", "1",
                 "--box-margin", "2", "--box-height", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"box", "states"}
    assert len(out["states"]) == 5 * 3
    assert set(out["states"]) <= {0, 1}
    # sample's box fields size the box it prints, so 0 is a one-site box
    assert main(["sample", "--box-margin", "0", "--box-height", "0"]) == 0
    assert capsys.readouterr().out == (
        '{"box": {"hi": [0, 0], "lo": [0, 0]}, "states": [1]}\n')


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


def _rerun_to_file(argv, digest, tmp_path, capsys):
    """argv run again with --out writes its stdout's bytes, of SHA-256
    digest, to that file alone: nothing on stdout and no .meta.json."""
    out = tmp_path / "body"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert [p.name for p in tmp_path.iterdir()] == ["body"]


def test_bounds_json(tmp_path, capsys):
    assert main(["bounds", "--d", "2", "--p", "0.99"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert out["steps_per_site"] == 4
    assert abs(out["prefactor"] - 1.240079) < 1e-5
    assert out["hypothesis_ok"] is True
    _rerun_to_file(["bounds", "--d", "2", "--p", "0.99"],
                   hashlib.sha256(text.encode()).hexdigest(), tmp_path, capsys)


def test_bounds_kmax(tmp_path, capsys):
    assert main(["bounds", "--d", "2", "--p", "0.99", "--kmax", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["surface_tail_bounds"]) == len(out["spread_tail_bounds"]) == 3
    assert main(["bounds", "--d", "2", "--p", "0.99"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["surface_tail_bounds"]) == len(out["spread_tail_bounds"]) == 6
    assert main(["bounds", "--kmax", "-1"]) == 1
    assert "k_max" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_max": "many"}))
    assert main(["bounds", "--config", str(cfg)]) == 1
    assert "k_max" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["surface", "--step-set", "no-straight-down"], "step_mode"),
    (["cover", "--step-set", "no-straight-down"], "step_mode"),
    (["cover", "--format", "csv"], "format"),
    (["bounds", "--format", "csv"], "format"),
    (["surface", "--kmax", "3"], "k_max"),
    (["surface", "--kmax", "3", "--replicates", "7"], "replicates"),
    (["cover", "--replicates", "7"], "replicates"),
])
def test_surface_and_cover_reject_flags_they_cannot_honour(argv, field, capsys):
    """The surface and the climb sets are full-step only, a cover and the
    bounds print JSON only, and a surface or a cover reads one field, with
    no replicates or tail levels: these flags fail loudly instead of being
    ignored."""
    seed = [] if argv[0] == "bounds" else ["--seed", "3"]  # bounds reads no seed
    assert main(argv + ["--d", "2", "--p", "0.99"] + seed) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"'{field}'" in captured.err
    assert main([argv[0], "--step-set", "full", "--d", "2", "--p", "0.99"] + seed) == 0


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


def test_existence_rejects_a_negative_base_radius(capsys):
    assert main(["existence", "--base-radius", "-1", "--p-grid", "0.9,0.99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "config field 'base_radius': must be >= 0" in captured.err


@pytest.mark.parametrize("argv, field, why", [
    (["surface", "--base-radius", "-1"], "base_radius", "must be >= 0"),
    (["surface", "--box-margin", "0"], "box_margin", "must be >= 1"),
    (["surface", "--box-height", "0"], "box_height", "must be >= 1"),
    (["surface", "--d", "1"], "d", "must be >= 2"),
    (["cover", "--box-height", "0"], "box_height", "must be >= 1"),
    (["cover", "--growth-cap", "-1"], "growth_cap", "must be >= 0"),
    (["cover", "--p", "1.5"], "p", "must lie in (0,1)"),
    (["brw", "--runs", "0"], "runs", "must be >= 1"),
    (["sample", "--d", "1"], "d", "must be >= 2"),
    (["sample", "--p", "0"], "p", "must lie in (0,1)"),
    (["oracle", "--p", "1.5"], "p", "must lie in (0,1)"),
    (["sample", "--box-margin", "-1"], "box_margin", "must be >= 0"),
    (["sample", "--box-height", "-1"], "box_height", "must be >= 0"),
])
def test_out_of_range_fields_are_named(argv, field, why, capsys):
    """surface, cover, sample and oracle range-check their fields as the
    experiment kinds do; before, a bad base radius or box size failed inside
    the engine with a message that named no field (as did a bad d or p in
    sample and oracle), and zero BRW runs failed on an empty sample."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"config field '{field}': {why}" in captured.err


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
        "k_max": 4, "box_margin": 1, "growth_cap": 0,
        "unresolved_threshold": 0.0001}))
    assert main(["tails", "--config", str(cfg)]) == 3


def test_exit_code_missing_or_one_value_p_grid(tmp_path, capsys):
    """existence with no --p-grid, and monotonicity (through tails --config)
    with a one-value grid, exit 1 naming p_grid."""
    cfg = tmp_path / "monotonicity.json"
    cfg.write_text(json.dumps({"kind": "monotonicity", "p_grid": [0.99]}))
    for argv in (["existence", "--replicates", "2"], ["tails", "--config", str(cfg)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "config field 'p_grid'" in captured.err and captured.out == "", argv
        assert "Traceback" not in captured.err


def test_exit_code_nan_unresolved_threshold(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"kind": "f_tail", "d": 2, "p": 0.95, "replicates": 200, '
                   '"growth_cap": 0, "box_margin": 1, "unresolved_threshold": NaN}')
    assert main(["tails", "--config", str(cfg)]) == 1
    assert "unresolved_threshold" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tails", "--kind", "f_tail", "--d", "2", "--p", "0.99", "--replicates", "10"],
    ["surface", "--d", "2", "--p", "0.99", "--base-radius", "1"],
])
def test_exit_code_unwritable_out_path(argv, tmp_path, capsys):
    """An --out path in a missing directory is reported as an error naming
    the path, with no traceback and no metadata file left behind."""
    out = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(out) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not list(tmp_path.rglob("*.meta.json"))


# os.access ignores permission bits for root, so only a missing directory
# is a portable case of an unwritable --out
@pytest.mark.parametrize("argv, work", [
    (["tails", "--kind", "f_tail", "--d", "2", "--p", "0.99", "--replicates", "10"],
     "lipsurf.reach.replicate_closed_masks"),
    (["oracle", "--p", "0.99"], "lipsurf.cli.oracle_suite"),
], ids=["tails", "oracle"])
def test_unwritable_out_path_stops_before_any_work(argv, work, tmp_path, monkeypatch, capsys):
    """An --out path in a missing directory, or naming an existing
    directory, fails the config check, before the first replicate is hashed
    or the oracle suite runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{work} ran before the --out path was checked")

    monkeypatch.setattr(work, forbidden)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and str(out) in captured.err
        assert "config field 'out'" in captured.err and captured.out == ""


def test_exit_code_usage_error(capsys):
    assert main(["no-such-command"]) == 1


def test_usage_errors_print_their_reason(capsys):
    for argv, named in ((["surface", "--bogus", "3"], "--bogus"),
                        (["tails", "--kind", "nope"], "'nope'"),
                        (["existence", "--p-grid", "0.5,x"], "--p-grid")):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err
        assert "error: " in captured.err and "Traceback" not in captured.err


# a valid value for each shared flag but --out and --config, and the shared
# flags each subcommand reads (besides --config), written out independently
# of the implementation
_SHARED = {"--d": "2", "--p": "0.99", "--seed": "3", "--replicates": "7",
           "--kmax": "3", "--box-margin": "2", "--box-height": "2",
           "--growth-cap": "1", "--step-set": "full", "--format": "json"}
_BOX = "--box-margin --box-height --growth-cap"
_SUBCOMMAND_READS = {
    "sample": "--d --p --seed --box-margin --box-height --format --out",
    "surface": f"--d --p --seed {_BOX} --step-set --format --out",
    "cover": f"--d --p --seed {_BOX} --step-set --out",
    # the tails run f_tail (_NEEDS), whose first box is k_max + 2 high
    "tails": "--d --p --seed --replicates --kmax --box-margin --growth-cap --step-set "
             "--format --out",
    "bounds": "--d --p --kmax --step-set --out",
    "brw": "--d --p --seed --format --out",
    "existence": f"--d --seed --replicates {_BOX} --step-set --format --out",
    "oracle": "--p --out",
}
# what a subcommand needs to run at all
_NEEDS = {"tails": ["--kind", "f_tail"], "existence": ["--p-grid", "0.9,0.99"]}


def _field(flag: str) -> str:
    return {"--kmax": "k_max", "--step-set": "step_mode"}.get(
        flag, flag[2:].replace("-", "_"))


@pytest.fixture
def no_work(monkeypatch):
    """Every subcommand's handler and every kind's job replaced by a stub
    that prints nothing: the field check comes first, and no case samples."""
    for cmd, (_, reads) in list(cli._COMMANDS.items()):
        if reads is not None:
            monkeypatch.setitem(cli._COMMANDS, cmd, (lambda args, config: 0, reads))
    for kind, (_, reads) in list(harness._JOBS.items()):
        monkeypatch.setitem(harness._JOBS, kind, (lambda exp: ({}, "", None), reads))


@pytest.mark.parametrize("cmd", sorted(_SUBCOMMAND_READS))
def test_each_subcommand_reads_exactly_its_flags(cmd, no_work, tmp_path, capsys):
    """A shared flag outside a subcommand's set stops the run and is named,
    with nothing on stdout; one in it is accepted.  A mistyped config field
    the subcommand reads is rejected too."""
    assert set(_SUBCOMMAND_READS) == set(cli._COMMANDS)
    reads = _SUBCOMMAND_READS[cmd].split()
    for flag, value in {**_SHARED, "--out": str(tmp_path / "body")}.items():
        status = main([cmd, *_NEEDS.get(cmd, []), flag, value])
        captured = capsys.readouterr()
        if flag in reads:
            assert status == 0, (flag, captured.err)
        else:
            assert status == 1 and captured.out == "", flag
            assert f"'{_field(flag)}': not read by" in captured.err, flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({_field(flag): [1]}))
        assert main([cmd, *_NEEDS.get(cmd, []), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"'{_field(flag)}'" in captured.err, flag


@pytest.mark.parametrize("argv, config, fields", [
    (["existence", "--step-set", "no-straight-down", "--p-grid", "0.9,0.99"], None,
     ["step_mode"]),
    (["brw", "--replicates", "9", "--kmax", "3"], None, ["replicates", "k_max"]),
    (["bounds"], {"d": "x"}, ["d"]),
    (["sample"], {"seed": 1.5}, ["seed"]),
    (["surface"], {"banana": 1}, ["banana"]),
    (["surface", "--kmax", "3", "--replicates", "7"], None, ["k_max", "replicates"]),
])
def test_flags_and_fields_once_ignored_now_stop_the_run(argv, config, fields,
                                                         tmp_path, capsys):
    """Each of these ran and printed a body as if the flag or field were not
    there, or (bounds) ended in a TypeError traceback."""
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert all(f"'{f}'" in captured.err for f in fields)


def test_oracle_subcommand(capsys, monkeypatch):
    # a 4096-configuration cover sweep, whose counts test_harness pins; the
    # default 2^15 sweep runs in acceptance 4
    monkeypatch.setattr("lipsurf.harness.cover_sweep",
                        functools.partial(cover_sweep, radius=1, h_max=3))
    assert main(["oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True
    assert len(out["checks"]) == 7


def test_oracle_subcommand_golden_stdout(tmp_path, capsys, monkeypatch):
    """The oracle report, byte for byte, under test_oracle_subcommand's
    radius-1, h_max-3 cover sweep, on stdout and in an --out file."""
    monkeypatch.setattr("lipsurf.harness.cover_sweep",
                        functools.partial(cover_sweep, radius=1, h_max=3))
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 2408
    digest = "6d894cd5671514fb78f44fdbda274ce534f7a0f36c9fcba7cb7f95d0b91d5608"
    assert hashlib.sha256(out).hexdigest() == digest
    _rerun_to_file(["oracle"], digest, tmp_path, capsys)


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
    result = run_experiment(dict(config, out=str(tmp_path / "want")))
    want_stdout = (result["csv"] if fmt == "csv"
                   else json.dumps(result["payload"], sort_keys=True) + "\n")
    assert main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == want_stdout
    got = tmp_path / "got"
    assert main(argv + ["--format", fmt, "--out", str(got)]) == 0
    assert capsys.readouterr().out == ""
    assert got.read_bytes() == (tmp_path / "want").read_bytes()
    assert (tmp_path / "got.meta.json").exists()


# SHA-256 of the stdout of `surface` (JSON and CSV) and `cover` at d=2 and
# d=3, with the default budget and with a growth-cap-0 budget that leaves
# columns or the cover unresolved
_SURFACE_D2 = ["surface", "--d", "2", "--p", "0.9", "--base-radius", "6"]
_SURFACE_D3 = ["surface", "--d", "3", "--p", "0.9", "--base-radius", "2"]
_TIGHT = ["--box-margin", "1", "--growth-cap", "0"]
_CLI_GOLDEN = [
    (_SURFACE_D2 + ["--seed", "3"],
     "f001c127f1f9a7c0ff558c19f642041b53d8e6d046018dc84a6b4e40d057ad19"),
    (_SURFACE_D2 + ["--seed", "3", "--format", "csv"],
     "eddffef77489812deda7bfc71f2e93bbdb634b01f88379aa832e4319ed381e20"),
    (_SURFACE_D2 + ["--seed", "5", "--box-height", "2"] + _TIGHT,
     "6502edb4e0b5b59479d281c14b13f0847b63032bc1ac633129e5987c24b6df14"),
    (_SURFACE_D2 + ["--seed", "5", "--box-height", "2"] + _TIGHT + ["--format", "csv"],
     "6be7eb6436e6e4c0bde970beb43f7ecbcb75636bc1ba04a8e0b442e0f0f1aeb7"),
    (_SURFACE_D3 + ["--seed", "3"],
     "dad648c8824057ee0ef40d660ebe8a20920e8fdb6cb7192cf4d388c3ebe1a8f0"),
    (_SURFACE_D3 + ["--seed", "3", "--format", "csv"],
     "643ff85f75ec60a5f7b3cf048aa6ead88ef69ca3b94f1751df888537e2585c66"),
    (_SURFACE_D3 + ["--seed", "5", "--box-height", "2"] + _TIGHT,
     "2a7dbf685a16bb8f00e158a64f5557d2eff2f8d8fe4a46b50b313cc29cec7000"),
    (_SURFACE_D3 + ["--seed", "5", "--box-height", "2"] + _TIGHT + ["--format", "csv"],
     "94247e0b21f9d56c421b56f79f224c4a6a8c4b68e98d251c40f56a765deb7f68"),
    (["cover", "--d", "2", "--p", "0.7", "--seed", "11"],
     "ea4f4cacd52437c0ad827bd5e034e078ac173ff7e94568050d6556ff47589e4e"),
    (["cover", "--d", "2", "--p", "0.7", "--seed", "11", "--box-height", "1"] + _TIGHT,
     "3f79efdb4b1bc4f3f45942a38ef91776183f43d806d07d58a27a28ca2d966947"),
    (["cover", "--d", "3", "--p", "0.8", "--seed", "2"],
     "5c935ff7a77ff0d962a1b0728bfc77362a1c92fc8f64593763942ee99bf5e3ba"),
    (["cover", "--d", "3", "--p", "0.8", "--seed", "2", "--box-height", "1"] + _TIGHT,
     "09c2c3b32c5de6d904c12eb545b2dafe72f0059a6c06dce05975377518ec26b0"),
]


@pytest.mark.parametrize("argv,digest", _CLI_GOLDEN,
                         ids=[" ".join(a) for a, _ in _CLI_GOLDEN])
def test_surface_and_cover_golden_stdout(argv, digest, tmp_path, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--format" not in argv:
        status = json.loads(out)["status"]
        assert ("unresolved" in status) == ("--growth-cap" in argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    _rerun_to_file(argv, digest, tmp_path, capsys)


_SAMPLE_D2 = ["sample", "--d", "2", "--p", "0.9", "--seed", "7", "--replicate", "3"]
_SAMPLE_D3 = ["sample", "--d", "3", "--p", "0.8", "--seed", "7", "--replicate", "3",
              "--box-margin", "2", "--box-height", "3"]
_SAMPLE_GOLDEN = [
    (_SAMPLE_D2, "338195507330206d634486794acc86009bf2e91c971cec9b7386ff751e4c3d14"),
    (_SAMPLE_D2 + ["--format", "csv"],
     "6475ee38653eda02abcb2acd2b58e89460bc3548afe70311477bfe0b425783c8"),
    (_SAMPLE_D3, "c4be340e6e89c510b8cf128809f6277f832d537a4059bb2f9bb284abd7684a75"),
    (_SAMPLE_D3 + ["--format", "csv"],
     "49052f9c9008dde1b3b9329cb8437cef30c2facc3c7b2944a8d711cc787f45c0"),
]


@pytest.mark.parametrize("argv,digest", _SAMPLE_GOLDEN,
                         ids=[" ".join(a) for a, _ in _SAMPLE_GOLDEN])
def test_sample_golden_stdout(argv, digest, tmp_path, capsys):
    """The sampled box, byte for byte, on stdout and in an --out file, and
    each of its states read off the field's closed_mask, with the replicate
    the flag names."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    _rerun_to_file(argv, digest, tmp_path, capsys)
    if "--format" in argv:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        sites = [tuple(map(int, site.split())) for site, _ in rows]
        box = BoxRegion(sites[0], sites[-1])
        assert sites == list(box.sites())
        states = [int(state) for _, state in rows]
    else:
        obj = json.loads(out)
        box, states = BoxRegion.from_json(obj["box"]), obj["states"]
    flags = dict(zip(argv[1::2], argv[2::2]))
    field = PercolationField(int(flags["--d"]), float(flags["--p"]),
                             int(flags["--seed"]), int(flags["--replicate"]))
    np.testing.assert_array_equal(np.reshape(states, box.shape),
                                  ~field.closed_mask(box))
