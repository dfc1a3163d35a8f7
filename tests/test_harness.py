"""Replication harness: seeding, aggregation, targets, and the file pipeline."""

import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from tsre import engine, genotype, harness, kernels
from tsre.cli import main
from tsre.engine import tsre_estimate
from tsre.errors import ConfigError, DataError, EstimationError
from tsre.genotype import (
    StandardizedGenotypes,
    compute_grm,
    load_genotypes,
    save_genotypes,
    save_grm,
    simulate_genotypes,
    standardize,
)
from tsre.harness import (
    DEFAULT_METHODS,
    METHOD_TAGS,
    TARGETS,
    ReplicationSpec,
    _select,
    builtin_rows,
    default_selection,
    estimate_real,
    load_phenotype,
    parse_selection,
    reproduce_table,
    run_scenario,
    save_phenotype,
)
from tsre.simulate import ScenarioConfig, generate_phenotypes, sample_effects
from tsre.sumstats import SUMMARY_DTYPE, per_variant_regression

from conftest import assert_same_summaries, packed_to_dense

DEFAULT_JOBS = [(tag, default_selection(tag)) for tag in DEFAULT_METHODS]


def _tiny_cfg(**kw):
    base = dict(
        n=60,
        m_b=10,
        m_c=4,
        sigma_gb=0.3,
        mu_gc_x=0.2,
        sigma_gc_x=0.1,
        sigma_gc_y=0.1,
        rho_gc=0.5,
        theta=0.3,
        sigma2_ex=1.0,
        sigma2_ey=1.0,
        seed=0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _replicate_pieces(monkeypatch, cfg, jobs):
    """One replicate's outcomes, with the genotype source it standardized
    into, the widths of its blocks, its phenotypes and its summaries."""
    seen = {}

    def spy(std, x, y):
        seen["source"] = type(std)
        seen["blocks"] = [block.shape[1] for block in std.blocks()]
        seen["x"], seen["y"] = x, y
        seen["summaries"] = per_variant_regression(std, x, y)
        return seen["summaries"]

    monkeypatch.setattr(harness, "per_variant_regression", spy)
    return seen, harness._replicate_outcomes((cfg, jobs, 5, 0, 0))


class TestSelectionSpecs:
    def test_parse(self):
        assert parse_selection("all") == ("all", None)
        assert parse_selection("top:20") == ("top", 20)
        assert parse_selection("pval:0.005") == ("pval", 0.005)

    @pytest.mark.parametrize(
        "bad", ["bogus", "top:zero", "top:0", "pval:2", "pval:x", "top", "pval"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_selection(bad)

    def test_defaults_by_method(self):
        assert default_selection("tsre") == "all"
        for tag in ("sm", "wm", "ivw", "egger", "tsls"):
            assert default_selection(tag) == "top:20"

    def test_select_picks_columns(self):
        summ = np.rec.fromrecords(
            [(f"v{k}", 1.0, 0.1, 0.5, 0.1, p) for k, p in enumerate([0.5, 0.01, 0.2])],
            dtype=SUMMARY_DTYPE,
        )
        assert _select(summ, "all") is None
        assert _select(summ, "top:2") == [1, 2]
        assert _select(summ, "pval:0.05") == [1]
        with pytest.raises(EstimationError, match=r"^selection 'pval:0.001' keeps no variants$"):
            _select(summ, "pval:0.001")


class TestReplicationSpec:
    def test_validates_reps(self):
        ReplicationSpec(reps=1).validate()
        with pytest.raises(ConfigError):
            ReplicationSpec(reps=0).validate()

    def test_checked_when_built_and_frozen(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            ReplicationSpec(seed=-1)
        spec = ReplicationSpec(reps=2)
        with pytest.raises(FrozenInstanceError):
            spec.reps = 0


class TestRunScenario:
    def test_aggregates_match_numpy_oracle(self):
        cfg = _tiny_cfg()
        spec = ReplicationSpec(reps=5, seed=11)
        results = run_scenario(cfg, spec, jobs=[("tsre", "all"), ("ivw", "top:20")])
        for res in results:
            assert res.reps == 5
            assert res.reps_failed == 0
            est = res.estimates
            assert est.size == 5
            assert res.mean == pytest.approx(est.mean())
            assert res.sd_mc == pytest.approx(est.std(ddof=1))
            assert res.mean_se == pytest.approx(res.ses.mean())
            assert res.bias == pytest.approx(est.mean() - cfg.theta)
            assert res.mse == pytest.approx(np.mean((est - cfg.theta) ** 2))

    def test_thread_count_does_not_change_results(self):
        cfg = _tiny_cfg()
        spec = ReplicationSpec(reps=6, seed=3)
        serial = run_scenario(cfg, spec, jobs=DEFAULT_JOBS, threads=1)
        threaded = run_scenario(cfg, spec, jobs=DEFAULT_JOBS, threads=2)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.ses, b.ses)

    def test_workers_never_exceed_replicates(self, monkeypatch):
        # a fork-started pool forks all max_workers processes at once, so the
        # pool is sized by the replicate count; the fake maps in-process
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        cfg = _tiny_cfg()
        jobs = [("tsre", "all"), ("ivw", "top:20")]
        run_scenario(cfg, ReplicationSpec(reps=3, seed=1), jobs=jobs, threads=8)
        assert started == [3]
        spec = ReplicationSpec(reps=1, seed=1)
        one = run_scenario(cfg, spec, jobs=jobs, threads=4)
        assert started == [3]
        for a, b in zip(one, run_scenario(cfg, spec, jobs=jobs, threads=1)):
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.ses, b.ses)

    def test_method_subset_does_not_change_numbers(self):
        cfg = _tiny_cfg()
        spec = ReplicationSpec(reps=4, seed=7)
        all_res = run_scenario(cfg, spec, jobs=DEFAULT_JOBS)
        only_wm = run_scenario(cfg, spec, jobs=[("wm", "top:20")])
        wm_full = next(r for r in all_res if r.method == "wm")
        assert np.array_equal(only_wm[0].estimates, wm_full.estimates)
        assert np.array_equal(only_wm[0].ses, wm_full.ses)

    def test_table2_row_numbers_are_pinned(self):
        # every estimate and se of three replicates of a builtin row, recorded
        # when dosages came from rng.binomial and the median bootstraps were
        # not computed in place: neither speed-up may move a single bit.  tsre
        # is recorded from its fit on the summaries and row norms, which
        # moved it by at most 1.7e-14 relative from its fit on Z'x and Z'y
        rows = builtin_rows("table2")
        key = next(i for i, row in enumerate(rows) if row[0] == "balanced_rho00_weak80")
        row_id, cfg, _ = rows[key]
        jobs = [(tag, default_selection(tag)) for tag in METHOD_TAGS]
        spec = ReplicationSpec(target="table2", reps=3, seed=0)
        results = run_scenario(cfg, spec, row_key=key, row_id=row_id, jobs=jobs)
        got = {r.method: (r.estimates.tolist(), r.ses.tolist()) for r in results}
        assert got == {
            "sm": (
                [0.3418740398971143, 0.2743232434605061, 0.3960140794498299],
                [0.08940701466516393, 0.09207282671203579, 0.07518868776204636],
            ),
            "wm": (
                [0.3517442749786354, 0.27474928827583667, 0.4224559796366092],
                [0.089173430951214, 0.09217991279589259, 0.07211447174235174],
            ),
            "ivw": (
                [0.32152787622709017, 0.32246273174862633, 0.3590462096728161],
                [0.07004752968522585, 0.07838372201670354, 0.05079863573282538],
            ),
            "ivw_fe": (
                [0.32152787622709017, 0.32246273174862633, 0.3590462096728161],
                [0.05510639826411303, 0.060700424519826754, 0.05079863573282538],
            ),
            "egger": (
                [0.4750368303588137, 0.3291192146257844, 0.6276338639844165],
                [0.32824028324875565, 0.4801940976007672, 0.2653992475991973],
            ),
            "tsre": (
                [0.2686272068383465, 0.312174531609268, 0.3311266676536203],
                [0.05522058039666567, 0.04949221739524275, 0.036384108516563186],
            ),
            "tsls": (
                [0.327283674003754, 0.32002115553943045, 0.353945681656732],
                [0.04791220965238556, 0.05367711153290034, 0.0460595609039684],
            ),
        }

    def test_failed_replicates_are_counted(self):
        # egger on two instruments always fails (needs three)
        cfg = _tiny_cfg()
        res = run_scenario(
            cfg,
            ReplicationSpec(reps=3, seed=2),
            jobs=[("egger", "top:2")],
        )[0]
        assert res.reps_failed == 3
        assert np.isnan(res.mean) and np.isnan(res.sd_mc)
        assert res.estimates.size == 0

    def test_tsre_builds_no_grm(self, monkeypatch, real_data, tmp_path):
        # with fewer or more variants than individuals, every tsre fit of a
        # replicate, and every one in estimate_real with or without a --grm
        # file, works from the summaries the caller made and the row norms
        gpath, xpath, ypath, *_ = real_data
        grm_path = tmp_path / "a.grm"
        save_grm(compute_grm(standardize(load_genotypes(gpath))), grm_path)

        def no_grm(*args):
            raise AssertionError("GRM built or reduced, or summaries made again")

        monkeypatch.setattr(harness, "compute_grm", no_grm)
        monkeypatch.setattr(kernels, "pair_sums", no_grm)
        monkeypatch.setattr(engine, "per_variant_regression", no_grm)
        selections = ("all", "top:5", "pval:0.05")
        jobs = [("tsre", selection) for selection in selections]
        wide = _tiny_cfg(n=30, m_a=40)
        assert wide.m_total > wide.n
        for cfg in (_tiny_cfg(), wide):
            for res in run_scenario(cfg, ReplicationSpec(reps=3, seed=5), jobs=jobs):
                assert res.reps_failed == 0
        for selection in selections:
            for path in (None, grm_path):
                estimate_real(
                    gpath, xpath, ypath, method="tsre", selection=selection, grm_path=path
                )

    def test_streamed_replicate_keeps_the_dense_numbers(self, monkeypatch):
        # with the held-whole limit at zero the same replicate streams its
        # standardized genotypes in two blocks (1280 + 640 columns at n=200):
        # phenotypes, summaries and every non-tsre estimate keep their bits,
        # and tsre, whose pair sums add up block by block, moves by rounding
        cfg = _tiny_cfg(n=200, m_a=640, m_b=640, m_c=320, m_d=320, sigma_gb=0.05,
                        mu_gc_x=0.0, sigma_gc_x=0.05, sigma_gc_y=0.05, sigma_gd=0.05)
        jobs = [(tag, selection) for tag in METHOD_TAGS for selection in ("all", "top:20")]
        dense, dense_out = _replicate_pieces(monkeypatch, cfg, jobs)
        monkeypatch.setattr(genotype, "_HELD_CELLS", 0)
        streamed, streamed_out = _replicate_pieces(monkeypatch, cfg, jobs)
        assert dense["source"] is StandardizedGenotypes
        assert streamed["source"] is genotype._StreamedGenotypes
        assert streamed["blocks"] == [1280, 640]
        assert streamed["x"].tobytes() == dense["x"].tobytes()
        assert streamed["y"].tobytes() == dense["y"].tobytes()
        assert_same_summaries(streamed["summaries"], dense["summaries"])
        for (tag, selection), got, want in zip(jobs, streamed_out, dense_out):
            if tag == "tsre":
                np.testing.assert_allclose(got, want, rtol=1e-9, err_msg=selection)
            else:
                assert got == want, (tag, selection)
        assert streamed_out[jobs.index(("tsls", "all"))] is None  # m > n
        assert sum(out is None for out in streamed_out) == 1

    def test_replicate_without_group_a_is_held(self, monkeypatch):
        # its phenotypes copy out every column, so streaming would save nothing
        monkeypatch.setattr(genotype, "_HELD_CELLS", 0)
        seen, out = _replicate_pieces(monkeypatch, _tiny_cfg(), [("tsre", "all")])
        assert seen["source"] is StandardizedGenotypes
        assert None not in out

    def test_streamed_replicate_never_holds_the_float_matrix(self):
        # the 48000 group-a columns hold 9.6e6 cells, above the held-whole
        # limit; the float64 matrix would be 80 MB, and the replicate holds
        # int8 dosages, 2 MB blocks and, for its phenotypes, groups b and c
        cfg = _tiny_cfg(n=200, m_a=48_000, m_b=1000, m_c=1000)
        assert cfg.n * cfg.m_a > genotype._HELD_CELLS
        tracemalloc.start()
        try:
            out = harness._replicate_outcomes((cfg, [("tsre", "all"), ("ivw", "top:20")], 0, 0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert None not in out
        assert peak < cfg.n * cfg.m_total * 8 / 2

    def test_tsls_on_more_columns_than_rows_copies_nothing(self):
        # K > n is refused before the Fortran copy of every column (80 MB here)
        gm = simulate_genotypes(200, 50_000, 0.05, 0.5, np.random.default_rng(0))
        std = genotype._standardized_source(gm)
        assert isinstance(std, genotype._StreamedGenotypes)
        x = y = np.zeros(gm.n)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="n >= K"):
                harness._run_method("tsls", "all", std, None, x, y, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gm.n * gm.m  # less than the int8 dosages themselves

    def test_bad_jobs_rejected(self):
        cfg = _tiny_cfg()
        spec = ReplicationSpec(reps=1)
        with pytest.raises(ConfigError):
            run_scenario(cfg, spec, jobs=[("nope", "all")])
        with pytest.raises(ConfigError):
            run_scenario(cfg, spec, jobs=[("tsre", "frac:1")])
        with pytest.raises(ConfigError):
            run_scenario(cfg, spec, jobs=DEFAULT_JOBS, threads=0)


class TestBuiltinTargets:
    EXPECTED_ROW_COUNTS = {
        "table2": 8,
        "table3": 3,
        "table4": 6,
        "fig3": 6,
        "fig4": 6,
        "s1": 7,
        "s2": 6,
        "s3": 8,
        "s4": 22,
    }

    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_rows_are_well_formed(self, target):
        rows = builtin_rows(target)
        assert len(rows) == self.EXPECTED_ROW_COUNTS[target]
        ids = [row_id for row_id, _, _ in rows]
        assert len(set(ids)) == len(ids)
        for _, cfg, jobs in rows:
            cfg.validate()
            assert jobs, "builtin rows must carry explicit jobs"
            for tag, selection in jobs:
                assert tag in METHOD_TAGS
                parse_selection(selection)

    def test_custom_requires_config(self):
        with pytest.raises(ConfigError):
            builtin_rows("custom")
        rows = builtin_rows("custom", _tiny_cfg())
        assert rows[0][0] == "custom"
        assert rows[0][2] == DEFAULT_JOBS

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            builtin_rows("table9")

    def test_null_target_runs_tsre_only(self):
        for _, _, jobs in builtin_rows("table4"):
            assert jobs == [("tsre", "all")]


class TestReproduceTable:
    def test_custom_target_outputs(self, tmp_path):
        paths = reproduce_table(
            "custom", tmp_path, reps=3, seed=5, config=_tiny_cfg()
        )
        results, scenarios = paths
        lines = open(results).read().splitlines()
        # no omitted-method note on custom runs
        assert lines[0] == (
            "target,row_id,method,selection,mean,sd_mc,mean_se,bias,mse,reps,reps_failed"
        )
        assert len(lines) == 1 + len(DEFAULT_METHODS)
        cells = lines[1].split(",")
        assert cells[0] == "custom"
        assert float(cells[4]) == float(repr(float(cells[4])))  # repr round trip
        scen_lines = open(scenarios).read().splitlines()
        assert scen_lines[0].startswith("row_id,n,m_a,")
        assert len(scen_lines) == 2

    def test_builtin_note_and_long_output(self, tmp_path, monkeypatch):
        # shrink a distribution target so the full writer path stays cheap
        rows = [("tiny", _tiny_cfg(), [("tsre", "all"), ("ivw", "top:5")])]
        monkeypatch.setitem(TARGETS, "fig3", lambda: rows)
        paths = reproduce_table("fig3", tmp_path, reps=3, seed=1)
        results, scenarios, long_path = paths
        lines = open(results).read().splitlines()
        assert lines[0] == "# omitted methods: divw, raps, lasso (not implemented)"
        assert lines[1].startswith("target,row_id,")
        long_lines = open(long_path).read().splitlines()
        assert long_lines[0] == "target,row_id,method,selection,rep,estimate,se"
        # 2 jobs x 3 reps, all successful
        assert len(long_lines) == 1 + 6
        rep_cells = [line.split(",") for line in long_lines[1:]]
        assert {c[4] for c in rep_cells} == {"0", "1", "2"}
        # every estimate and se cell is a plain float literal
        for cells in rep_cells:
            assert np.isfinite([float(cells[5]), float(cells[6])]).all()

    def test_byte_identical_across_threads(self, tmp_path):
        a = reproduce_table("custom", tmp_path / "a", reps=4, seed=9, config=_tiny_cfg())
        b = reproduce_table(
            "custom", tmp_path / "b", reps=4, seed=9, threads=3, config=_tiny_cfg()
        )
        assert open(a[0], "rb").read() == open(b[0], "rb").read()
        assert open(a[1], "rb").read() == open(b[1], "rb").read()

    def test_builtin_target_rejects_config(self, tmp_path):
        out = tmp_path / "rep"
        with pytest.raises(ConfigError, match="custom target"):
            reproduce_table("table2", out, reps=1, config=_tiny_cfg())
        assert not out.exists()


class TestPhenotypeIO:
    @pytest.mark.parametrize(
        "names", [["a", "b", "c"], ['"a', "a,b", " b\r"]], ids=["plain", "quoted"]
    )
    def test_round_trip(self, tmp_path, names):
        path = tmp_path / "p.csv"
        save_phenotype(path, names, [1.5, -2.25, 0.125])
        ids, vals = load_phenotype(path)
        assert ids == names
        assert np.array_equal(vals, [1.5, -2.25, 0.125])

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,value\na,1.0\na,2.0\n")
        with pytest.raises(DataError, match="line 3.*duplicate"):
            load_phenotype(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample,pheno\na,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_phenotype(path)

    @pytest.mark.parametrize("row", ["b,oops", "b,1.0,2.0"])
    def test_bad_value_reports_line(self, tmp_path, row):
        path = tmp_path / "p.csv"
        path.write_text(f"id,value\na,1.0\n{row}\n")
        with pytest.raises(DataError, match="line 3"):
            load_phenotype(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, bad):
        path = tmp_path / "p.csv"
        path.write_text(f"id,value\na,1.0\nb,{bad}\n")
        with pytest.raises(DataError, match="line 3.*not finite"):
            load_phenotype(path)

    def test_length_mismatch_on_save(self, tmp_path):
        with pytest.raises(DataError):
            save_phenotype(tmp_path / "p.csv", ["a"], [1.0, 2.0])


@pytest.fixture
def real_data(tmp_path):
    """A small on-disk dataset: genotypes plus both phenotypes."""
    cfg = _tiny_cfg(n=80, m_b=20, m_c=6)
    rng = np.random.default_rng(np.random.SeedSequence(42))
    gm = simulate_genotypes(cfg.n, cfg.m_total, cfg.maf_low, cfg.maf_high, rng)
    width = max(6, len(str(cfg.n)))
    gm.individual_ids = [f"i{r:0{width}d}" for r in range(1, cfg.n + 1)]
    std = standardize(gm)
    pheno = generate_phenotypes(std, sample_effects(cfg, rng), cfg, rng)
    gpath = tmp_path / "geno.csv"
    xpath = tmp_path / "exposure.csv"
    ypath = tmp_path / "outcome.csv"
    save_genotypes(gm, gpath)
    save_phenotype(xpath, gm.individual_ids, pheno.x)
    save_phenotype(ypath, gm.individual_ids, pheno.y)
    return gpath, xpath, ypath, gm, pheno


class TestEstimateReal:
    def test_tsre_matches_direct_computation(self, real_data):
        gpath, xpath, ypath, gm, pheno = real_data
        res = estimate_real(gpath, xpath, ypath, method="tsre")
        std = standardize(load_genotypes(gpath))
        fit = tsre_estimate(compute_grm(std), pheno.x, pheno.y)
        assert res.theta_hat == pytest.approx(fit.theta_hat, rel=1e-12)
        assert res.se == pytest.approx(fit.se, rel=1e-12)
        assert res.n == 80
        assert res.m_used == std.m

    def test_all_methods_produce_finite_output(self, real_data):
        gpath, xpath, ypath, *_ = real_data
        for tag in METHOD_TAGS:
            res = estimate_real(gpath, xpath, ypath, method=tag)
            assert np.isfinite(res.theta_hat), tag
            assert np.isfinite(res.se) and res.se > 0, tag
            assert res.method == tag

    def test_default_selection_counts(self, real_data):
        gpath, xpath, ypath, gm, _ = real_data
        assert estimate_real(gpath, xpath, ypath, method="tsre").m_used == gm.m
        assert estimate_real(gpath, xpath, ypath, method="ivw").m_used == 20

    def test_phenotype_row_order_is_irrelevant(self, real_data, tmp_path):
        gpath, xpath, ypath, gm, pheno = real_data
        shuffled = tmp_path / "exposure_shuffled.csv"
        order = np.random.default_rng(0).permutation(gm.n)
        save_phenotype(
            shuffled,
            [gm.individual_ids[i] for i in order],
            pheno.x[order],
        )
        a = estimate_real(gpath, xpath, ypath, method="tsre")
        b = estimate_real(gpath, shuffled, ypath, method="tsre")
        assert a.theta_hat == b.theta_hat

    def test_subset_of_phenotypes_narrows_the_sample(self, real_data, tmp_path):
        gpath, xpath, ypath, gm, pheno = real_data
        sub = tmp_path / "exposure_sub.csv"
        save_phenotype(sub, gm.individual_ids[:50], pheno.x[:50])
        res = estimate_real(gpath, sub, ypath, method="tsre")
        assert res.n == 50

    def test_unknown_phenotype_id_is_reported(self, real_data, tmp_path):
        gpath, xpath, ypath, gm, pheno = real_data
        bad = tmp_path / "exposure_bad.csv"
        save_phenotype(bad, ["stranger"] + gm.individual_ids[1:], pheno.x)
        with pytest.raises(DataError, match="stranger"):
            estimate_real(gpath, bad, ypath)

    @pytest.mark.parametrize("selection", [None, "top:5"])
    def test_precomputed_grm_matches_recomputation(self, real_data, tmp_path, selection):
        # the file is checked, then left unused: tsre fits on the genotypes
        gpath, xpath, ypath, *_ = real_data
        std = standardize(load_genotypes(gpath))
        grm_path = tmp_path / "a.grm"
        save_grm(compute_grm(std), grm_path)
        with_file = estimate_real(
            gpath, xpath, ypath, method="tsre", selection=selection, grm_path=grm_path
        )
        without = estimate_real(gpath, xpath, ypath, method="tsre", selection=selection)
        assert with_file.theta_hat == without.theta_hat
        assert with_file.se == without.se

    def test_grm_size_mismatch_rejected(self, real_data, tmp_path):
        gpath, xpath, ypath, gm, pheno = real_data
        small = standardize(load_genotypes(gpath))
        small = type(small)(
            values=small.values[:10], variant_ids=small.variant_ids
        )
        grm_path = tmp_path / "small.grm"
        save_grm(compute_grm(small), grm_path)
        with pytest.raises(DataError, match="n=10"):
            estimate_real(gpath, xpath, ypath, method="tsre", grm_path=grm_path)
        narrow = standardize(load_genotypes(gpath))
        narrow = type(narrow)(values=narrow.values[:, :5], variant_ids=narrow.variant_ids[:5])
        save_grm(compute_grm(narrow), grm_path)
        with pytest.raises(DataError, match="built from 5 variants"):
            estimate_real(gpath, xpath, ypath, method="tsre", grm_path=grm_path)

    def test_relatedness_filter_drops_a_duplicate(self, real_data, tmp_path):
        gpath, xpath, ypath, gm, pheno = real_data
        # make individual 2 a genotypic copy of individual 1
        dup = load_genotypes(gpath)
        dup.dosages[1] = dup.dosages[0]
        dup_path = tmp_path / "dup.csv"
        save_genotypes(dup, dup_path)
        # pick a cutoff that separates the duplicated pair from the background
        dense = packed_to_dense(compute_grm(standardize(dup)).lower_triangle, dup.n)
        pair = dense[1, 0]
        off = np.abs(dense[np.tril_indices(dup.n, k=-1)])
        background = np.sort(off)[-2]  # largest entry besides the duplicate
        assert pair > background
        cutoff = (pair + background) / 2
        res = estimate_real(dup_path, xpath, ypath, method="tsre", grm_cutoff=cutoff)
        assert res.n == 79

    def test_validation_errors(self, real_data):
        gpath, xpath, ypath, *_ = real_data
        with pytest.raises(ConfigError):
            estimate_real(gpath, xpath, ypath, method="bogus")
        with pytest.raises(ConfigError):
            estimate_real(gpath, xpath, ypath, selection="frac:0.2")

    def test_csv_rendering(self, real_data, capsys):
        gpath, xpath, ypath, *_ = real_data
        res = estimate_real(gpath, xpath, ypath, method="ivw")
        argv = ["estimate", "--method", "ivw", "--genotypes", str(gpath),
                "--exposure", str(xpath), "--outcome", str(ypath)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        header, row, _ = text.split("\n")
        assert header == "method,theta_hat,se,n,m_used"
        cells = row.split(",")
        assert cells[0] == "ivw"
        assert float(cells[1]) == res.theta_hat
