import hashlib
import json

import pytest

from lipsurf import harness
from lipsurf.bounds import HypothesisError, spread_tail_bound, surface_tail_bound
from lipsurf.harness import (TAIL_CSV_HEADER, BudgetExceededError, ConfigError,
                             Experiment, cover_tail_curve, equivariance_check,
                             existence_curve, experiment_from_config,
                             monotonicity_check, run_experiment,
                             spread_tail_curve, surface_tail_curve,
                             surface_validity)
from lipsurf.lattice import BoxRegion, PercolationField
from lipsurf.oracle import exact_event_prob, walk_reach
from lipsurf.reach import StepSet


def test_experiment_from_config_valid():
    exp = experiment_from_config({"kind": "f_tail", "d": 2, "p": 0.99,
                                  "replicates": 10, "seed": 3, "k_max": 2})
    assert exp.kind == "f_tail" and exp.replicates == 10
    assert exp.step_mode is StepSet.FULL


def test_experiment_from_config_errors_name_fields():
    with pytest.raises(ConfigError, match="kind"):
        experiment_from_config({})
    with pytest.raises(ConfigError, match="wibble"):
        experiment_from_config({"kind": "f_tail", "wibble": 3})
    with pytest.raises(ConfigError, match="'p'"):
        experiment_from_config({"kind": "f_tail", "p": "high"})
    with pytest.raises(ConfigError, match="p_grid"):
        experiment_from_config({"kind": "existence_curve", "p_grid": [0.99, 0.95]})
    with pytest.raises(ConfigError, match="step_mode"):
        experiment_from_config({"kind": "f_tail", "step_mode": "sideways"})
    with pytest.raises(ConfigError, match="step_mode"):
        experiment_from_config({"kind": "radh_tail",
                                "step_mode": "no-straight-down"})
    with pytest.raises(ConfigError, match="replicates"):
        experiment_from_config({"kind": "f_tail", "replicates": 0})


def test_surface_tail_k0_row_and_bounds_column():
    exp = Experiment(kind="f_tail", d=2, p=0.99, replicates=400, seed=5, k_max=3)
    curve = surface_tail_curve(exp)
    assert curve.rows[0].p_lo == curve.rows[0].p_hi == 1.0
    assert curve.rows[0].bound >= 1.0
    for r in curve.rows:
        assert r.bound == surface_tail_bound(2, 0.99, r.k)
        assert r.p_lo <= r.p_hi
    assert curve.max_unresolved_frac() <= 0.01


def test_surface_tail_vs_exact_oracle_bracket():
    # exact bracket for P(F(0) > 1) on a 9-site box; the MC interval must
    # intersect it
    d, p = 2, 0.99
    box = BoxRegion((-1, 0), (1, 2))
    bottom = [(-1, 0), (0, 0), (1, 0)]
    side = [s for s in box.sites() if abs(s[0]) == 1]

    def opt_hit(config):
        return (0, 1) in walk_reach(config, bottom, height_floor=0)

    def pes_hit(config):
        return (0, 1) in walk_reach(config, set(bottom) | set(side),
                                    height_floor=0)

    exact_lo = exact_event_prob(d, p, box, opt_hit)
    exact_hi = exact_event_prob(d, p, box, pes_hit)
    exp = Experiment(kind="f_tail", d=d, p=p, replicates=3000, seed=9, k_max=1)
    row = surface_tail_curve(exp).rows[1]
    assert exact_lo <= exact_hi
    assert row.ci_lo <= exact_hi and exact_lo <= row.ci_hi


_BATCH_CONFIGS = [
    dict(d=2, p=0.99, replicates=200, seed=31),
    dict(d=2, p=0.99, replicates=200, seed=32, step_mode=StepSet.NO_STRAIGHT_DOWN),
    dict(d=3, p=0.99, replicates=40, seed=33),
    dict(d=3, p=0.99, replicates=40, seed=34, step_mode=StepSet.NO_STRAIGHT_DOWN),
    # small boxes at low p: the first box leaves replicates unsettled
    dict(d=2, p=0.9, replicates=300, seed=35, step_mode=StepSet.NO_STRAIGHT_DOWN,
         box_height=3, box_margin=1, growth_cap=2),
    dict(d=2, p=0.95, replicates=300, seed=36, box_height=3, box_margin=1,
         growth_cap=2),
]


@pytest.mark.parametrize("chunk_sites", [1000, harness._CHUNK_SITES])
@pytest.mark.parametrize("cfg", _BATCH_CONFIGS)
def test_surface_tail_batching_matches_per_replicate_path(cfg, chunk_sites,
                                                          monkeypatch):
    """The chunked first-box pass plus growth fallback counts exactly what
    the per-replicate growth loop counts on single fields; 1000 sites per
    chunk splits every config into many chunks with a partial last one."""
    exp = Experiment(kind="f_tail", k_max=4, **cfg)
    want_lo, want_hi = [0] * 5, [0] * 5
    for rep in range(exp.replicates):
        field = PercolationField(exp.d, exp.p, exp.seed, rep)
        ro, rp = harness._origin_floor_runs(field, exp.k_max, exp.budget,
                                            exp.step_mode)
        for k in range(5):
            want_lo[k] += ro >= k
            want_hi[k] += rp >= k
    grown = []
    per_replicate = harness._origin_floor_runs

    def spy(field, *args):
        grown.append(field.replicate)
        return per_replicate(field, *args)

    monkeypatch.setattr(harness, "_CHUNK_SITES", chunk_sites)
    monkeypatch.setattr(harness, "_origin_floor_runs", spy)
    curve = surface_tail_curve(exp)
    assert [r.hits_lo for r in curve.rows] == want_lo
    assert [r.hits_hi for r in curve.rows] == want_hi
    assert all(type(r.hits_lo) is int and type(r.hits_hi) is int
               for r in curve.rows)
    assert "np." not in curve.to_csv()
    if exp.p < 0.99:
        assert grown, "no replicate took the growth fallback"


def test_spread_and_cover_tails():
    exp = Experiment(kind="radh_tail", d=2, p=0.99, replicates=2000, seed=6,
                     k_max=3, box_margin=4, box_height=4, growth_cap=5)
    spread = spread_tail_curve(exp)
    assert spread.rows[0].p_lo == 1.0  # the climb set always holds (0, 0)
    for r in spread.rows:
        assert r.bound == spread_tail_bound(2, 0.99, r.k)
    cover = cover_tail_curve(exp)
    # the cover always contains the center at height >= 1
    assert cover.rows[0].p_lo == 1.0 and cover.rows[1].p_lo == 1.0
    # shifted bound column
    assert cover.rows[1].bound == spread_tail_bound(2, 0.99, 0)
    assert cover.rows[3].bound == spread_tail_bound(2, 0.99, 2)


def test_tail_hypothesis_violation_raises():
    with pytest.raises(HypothesisError):
        surface_tail_curve(Experiment(kind="f_tail", d=2, p=0.9, replicates=5))
    with pytest.raises(HypothesisError):
        spread_tail_curve(Experiment(kind="radh_tail", d=2, p=0.9, replicates=5))


def test_surface_validity_experiment():
    out = surface_validity(Experiment(kind="surface_validity", d=2, p=0.98,
                                      replicates=20, seed=8, base_radius=3))
    assert out["columns_total"] == 20 * 7
    assert out["certified_fraction"] == 1.0
    assert out["openness_violations"] == 0
    assert out["lipschitz_violations"] == 0


def test_existence_curve_monotone_and_labelled():
    exp = Experiment(kind="existence_curve", d=2, p_grid=(0.85, 0.95, 0.999),
                     replicates=30, seed=4, base_radius=3,
                     box_margin=2, box_height=4, growth_cap=2)
    rows = existence_curve(exp)
    fracs = [r["fraction"] for r in rows]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    assert rows[-1]["fraction"] >= 0.9
    assert rows[0]["regime"] == "outside proven regime"  # 0.85 < 8/9
    assert rows[2]["regime"] == "proven"


def test_equivariance_and_monotonicity_checks():
    eq = equivariance_check(Experiment(kind="equivariance", d=3, p=0.98,
                                       replicates=3, seed=2, base_radius=2))
    assert eq["isometries"] == 8 and eq["mismatches"] == 0
    mono = monotonicity_check(Experiment(kind="monotonicity", d=2,
                                         p_grid=(0.97, 0.99), replicates=30,
                                         seed=2, base_radius=5))
    assert mono["violations"] == 0 and mono["pairs_checked"] > 0


def test_run_experiment_deterministic_csv(tmp_path):
    config = {"kind": "radh_tail", "d": 2, "p": 0.99, "replicates": 300,
              "seed": 12, "k_max": 3, "out": str(tmp_path / "a.csv")}
    run_experiment(dict(config))
    config["out"] = str(tmp_path / "b.csv")
    run_experiment(dict(config))
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.splitlines()[0] == TAIL_CSV_HEADER
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 12 and "wall_time_s" in meta


def test_run_experiment_json_format(tmp_path):
    out = tmp_path / "curve.json"
    run_experiment({"kind": "radh_tail", "d": 2, "p": 0.99, "replicates": 50,
                    "seed": 1, "k_max": 2, "format": "json", "out": str(out)})
    payload = json.loads(out.read_text())
    assert payload["kind"] == "radh_tail"
    assert len(payload["rows"]) == 3


def test_run_experiment_config_file(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "brw", "d": 2, "p": 0.99,
                               "runs": 200, "generations": 3, "seed": 3}))
    result = run_experiment(str(cfg))
    assert result["csv"].splitlines()[0] == \
        "n,mean_S,se_S,alpha_pow_n,survival_hat,survival_ci_hi,bound"
    assert len(result["payload"]["rows"]) == 4


def test_run_experiment_budget_exceeded(tmp_path):
    out = tmp_path / "tight.csv"
    config = {"kind": "f_tail", "d": 2, "p": 0.95, "replicates": 300,
              "seed": 5, "k_max": 4, "box_height": 3, "box_margin": 1,
              "growth_cap": 0, "unresolved_threshold": 0.0001,
              "out": str(out)}
    with pytest.raises(BudgetExceededError):
        run_experiment(config)
    assert out.exists()  # artifacts are written before the loud failure


def test_oracle_suite_fast_checks():
    from lipsurf.harness import en_check, walk_path_sweep
    assert walk_path_sweep()["passed"]
    assert en_check(2, 0.99, 5)["passed"]


def test_run_experiment_rejects_non_object_config_file(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="<root>.*JSON object"):
        run_experiment(str(cfg))


# One case per code path of run_experiment: every kind, f_tail at d=2 and
# d=3 with both step sets and with the growth fallback, spread and cover
# tails with uncertified replicates, and the two failure paths.  `raises`
# is the exception the call ends in; a BudgetExceededError comes after the
# body is written, a HypothesisError before.
_SMALL_BOX = {"box_margin": 1, "box_height": 1, "growth_cap": 0}
_GOLDEN_CASES = {
    "f_tail_d2": ({"kind": "f_tail", "replicates": 300, "seed": 41}, None),
    "f_tail_d2_nsd_growth": ({"kind": "f_tail", "p": 0.9, "replicates": 200,
                              "seed": 42, "step_mode": "no-straight-down",
                              "box_height": 3, "box_margin": 1, "growth_cap": 2,
                              "unresolved_threshold": 1.0}, None),
    "f_tail_d2_growth": ({"kind": "f_tail", "p": 0.95, "replicates": 200,
                          "seed": 43, "box_height": 3, "box_margin": 1,
                          "growth_cap": 2, "unresolved_threshold": 1.0}, None),
    "f_tail_d3": ({"kind": "f_tail", "d": 3, "replicates": 20, "seed": 44,
                   "k_max": 3}, None),
    "f_tail_d3_nsd": ({"kind": "f_tail", "d": 3, "replicates": 20, "seed": 45,
                       "k_max": 3, "step_mode": "no-straight-down"}, None),
    "f_tail_budget": ({"kind": "f_tail", "p": 0.95, "replicates": 300, "seed": 5,
                       "box_height": 3, "box_margin": 1, "growth_cap": 0,
                       "unresolved_threshold": 0.0001}, BudgetExceededError),
    "f_tail_hypothesis": ({"kind": "f_tail", "p": 0.9, "replicates": 5},
                          HypothesisError),
    "radh_tail": ({"kind": "radh_tail", "replicates": 200, "seed": 46,
                   "k_max": 3, "box_margin": 4, "box_height": 4,
                   "growth_cap": 5}, None),
    "radh_tail_uncertified": ({"kind": "radh_tail", "replicates": 200,
                               "seed": 47, "k_max": 3, **_SMALL_BOX},
                              BudgetExceededError),
    "rho_tail_uncertified": ({"kind": "rho_tail", "replicates": 200, "seed": 47,
                              "k_max": 3, "unresolved_threshold": 1.0,
                              **_SMALL_BOX}, None),
    "rho_tail_hypothesis": ({"kind": "rho_tail", "p": 0.9, "replicates": 5},
                            HypothesisError),
    "surface_validity": ({"kind": "surface_validity", "p": 0.9, "replicates": 4,
                          "seed": 48, "base_radius": 2, "box_margin": 1,
                          "box_height": 2, "growth_cap": 0}, BudgetExceededError),
    "existence_curve": ({"kind": "existence_curve", "p_grid": [0.6, 0.85, 0.999],
                         "replicates": 4, "seed": 49, "base_radius": 2,
                         "box_margin": 2, "box_height": 4, "growth_cap": 1,
                         "unresolved_threshold": -1.0}, None),
    "equivariance": ({"kind": "equivariance", "p": 0.98, "replicates": 2,
                      "seed": 50, "base_radius": 2,
                      "unresolved_threshold": -1.0}, None),
    "monotonicity": ({"kind": "monotonicity", "p_grid": [0.97, 0.99],
                      "replicates": 4, "seed": 51, "base_radius": 2,
                      "unresolved_threshold": -1.0}, None),
    "brw": ({"kind": "brw", "runs": 100, "generations": 4, "seed": 52,
             "unresolved_threshold": -1.0}, None),
}


def _golden_bodies(tmp_path, name: str) -> tuple:
    """SHA-256 of the CSV and JSON bodies run_experiment writes for one case
    (None where no body is written)."""
    config, raises = _GOLDEN_CASES[name]
    digests = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"{name}.{fmt}"
        cfg = dict(config, format=fmt, out=str(out))
        if raises is None:
            result = run_experiment(cfg)
            if fmt == "csv":
                assert result["csv"] == out.read_text(encoding="utf-8")
        else:
            with pytest.raises(raises):
                run_experiment(cfg)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest()
                       if out.exists() else None)
    return tuple(digests)


_GOLDEN_DIGESTS = {
    "f_tail_d2": (
        "cde3b879d840cfa93a903606145f956e444202439b00eb5a4a24fdcafa91b228",
        "4ef5fb80d8e756fa46cee360ddc8cd0ffea328360669b5271299f4842af3222f"),
    "f_tail_d2_nsd_growth": (
        "a0a99e3f13bd5474f6cda125f70ad21c72bc31a9e85f89ff8eb81a6eaf352bfa",
        "d12361ed0e403b125246a1f7ccab93eae66d03a6eb91fbe5972c26e7c0956b29"),
    "f_tail_d2_growth": (
        "9eb35de80157484a71197f7148c2d6c2f4c7dc57d617592d91e30eaaefe67eb6",
        "1d685584964b687228bc69434265b2100780cf9f166f415a0250c13b4466b7b0"),
    "f_tail_d3": (
        "5ec0c6d6accb285326af1a091b11fa4bc1314d19e5f6d34ff334777a87b5976a",
        "ea84a4d0283a14f2758c5de070c6516b186c7c0ea9714eb81dc87bf20fe780ca"),
    "f_tail_d3_nsd": (
        "3f8427abfb9ef80cd80b890505b8b49489f29927aac56d02bec6e27dc51be7ef",
        "fdfaae01282b5cc000d0091a8888a5787f9e1b4f91291086864f760484c0ea21"),
    "f_tail_budget": (
        "ba50e5bd2c7ce143a9f93559eed82c453bce2cbb032a98d643788b257e183514",
        "80613ab38b3b6a5622c32ef07d5cf852e4cada615d052d4e8f3cd9da86b6bf7d"),
    "f_tail_hypothesis": (None, None),
    "radh_tail": (
        "25c0aa12093198ada46fcde8e4b0c31b280e160d09ef63a390fbec1dbe440e11",
        "5a398a266b088595f35cae2c53fd700678129c5fc39e1f2da7c04c370c76c50e"),
    "radh_tail_uncertified": (
        "7b79cd65d3e916d514a4b9d6ab89c0b8a578a26302533ae9e5353efe056f3c9d",
        "ff7b46e7f700f304bcb23f76019ce4e0c520865089fd5926682b4e5190e5fccb"),
    "rho_tail_uncertified": (
        "fa6962dd4e3e649f1ffdbc91b159978edcd3d17edeadf51e8364bdfe127a3435",
        "deb0bfe9d8f897f7a769d43704edfb663793a3651119ab42dc38b4bf8be9e7ba"),
    "rho_tail_hypothesis": (None, None),
    "surface_validity": (
        "a2d26bd4cdd368fbed64d7ce68fca4b83ad695509eb7db5f4d1fc030a6f6f3a6",
        "e65a86bda4e0179c8388df59ee7b560934ff83f3020ea3f3a329142b39188cb6"),
    "existence_curve": (
        "9b069c4c27b211777690d5d0b6209df87bda898ebbfae5e9fbcb1aef6ce0af7f",
        "5873e6d4270e604311c518effaf9251f9c218d84a0e967d2481c2e42454423ea"),
    "equivariance": (
        "85f04551aff5b7540c6c85850d74900b8ce670a338d2c305ea3b2ca83dd7fd8c",
        "407f879976fe42e4e107b39ae919250c4a5d82cba317cac0ff68e3e17f8cbbd6"),
    "monotonicity": (
        "b4ca3a845938a5d0e57973ee0b4de81652b641e1a0ab62228e75bc5a694e6bac",
        "288914cc2b6c2f3c3b1bb7a8bf32c212594dea520a49353f514462c7ccd4b471"),
    "brw": (
        "aec41c355fa356febcb652503d77a71873a660a89deec7715a5cfea8854a0ac8",
        "ed51fb777c50b381ee240fe6da5692475aaf471102f70f63badc7e644b251a99"),
}


def test_run_experiment_golden_bodies(tmp_path):
    """Every kind's CSV and JSON body, byte for byte: refactors of the
    harness must leave these digests unchanged."""
    got = {name: _golden_bodies(tmp_path, name) for name in _GOLDEN_CASES}
    assert got == _GOLDEN_DIGESTS
