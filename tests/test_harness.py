"""Replication harness: seeding, aggregation, targets, and the file pipeline."""

import threading
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from tsre import engine, genotype, harness, kernels
from tsre.cli import main
from tsre.engine import tsre_estimate
from tsre.errors import ConfigError, DataError, EstimationError
from tsre.genotype import (
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
from tsre.estimators import N_BOOT, ivw
from tsre.sumstats import SUMMARY_DTYPE, per_variant_regression, select_top_k

from conftest import packed_to_dense

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
        with pytest.warns(UserWarning, match="requested top 20"):
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
        with pytest.warns(UserWarning, match="requested top 20"):
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
        spec = ReplicationSpec(reps=1, seed=1)
        with pytest.warns(UserWarning, match="requested top 20"):
            run_scenario(cfg, ReplicationSpec(reps=3, seed=1), jobs=jobs, threads=8)
            assert started == [3]
            one = run_scenario(cfg, spec, jobs=jobs, threads=4)
            assert started == [3]
            serial = run_scenario(cfg, spec, jobs=jobs, threads=1)
        for a, b in zip(one, serial):
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.ses, b.ses)

    def test_method_subset_does_not_change_numbers(self):
        cfg = _tiny_cfg()
        spec = ReplicationSpec(reps=4, seed=7)
        with pytest.warns(UserWarning, match="requested top 20"):
            all_res = run_scenario(cfg, spec, jobs=DEFAULT_JOBS)
            only_wm = run_scenario(cfg, spec, jobs=[("wm", "top:20")])
        wm_full = next(r for r in all_res if r.method == "wm")
        assert np.array_equal(only_wm[0].estimates, wm_full.estimates)
        assert np.array_equal(only_wm[0].ses, wm_full.ses)

    def test_table2_row_numbers_are_pinned(self):
        # every estimate and se of three replicates of a builtin row.  The
        # sampler and the in-place median bootstraps kept every bit when
        # they came in; these literals were re-recorded when phenotypes,
        # summaries and row norms came to be read from the int8 dosages,
        # which moved every method by rounding only (at most 3.3e-13
        # relative, egger; tsre 1.8e-14, tsls 6.3e-16)
        rows = builtin_rows("table2")
        key = next(i for i, row in enumerate(rows) if row[0] == "balanced_rho00_weak80")
        row_id, cfg, _ = rows[key]
        jobs = [(tag, default_selection(tag)) for tag in METHOD_TAGS]
        spec = ReplicationSpec(target="table2", reps=3, seed=0)
        results = run_scenario(cfg, spec, row_key=key, row_id=row_id, jobs=jobs)
        got = {r.method: (r.estimates.tolist(), r.ses.tolist()) for r in results}
        assert got == {
            "sm": (
                [0.34187403989711374, 0.27432324346050607, 0.39601407944982925],
                [0.08940701466516433, 0.09207282671203594, 0.07518868776204621],
            ),
            "wm": (
                [0.35174427497863575, 0.2747492882758368, 0.4224559796366082],
                [0.08917343095121405, 0.0921799127958928, 0.07211447174235151],
            ),
            "ivw": (
                [0.32152787622709134, 0.3224627317486294, 0.3590462096728153],
                [0.07004752968522604, 0.07838372201670375, 0.050798635732825254],
            ),
            "ivw_fe": (
                [0.32152787622709134, 0.3224627317486294, 0.3590462096728153],
                [0.05510639826411308, 0.0607004245198269, 0.050798635732825254],
            ),
            "egger": (
                [0.4750368303588303, 0.32911921462589167, 0.627633863984382],
                [0.32824028324875143, 0.4801940976007802, 0.265399247599189],
            ),
            "tsre": (
                [0.26862720683834884, 0.3121745316092735, 0.3311266676536205],
                [0.05522058039666571, 0.049492217395242975, 0.03638410851656296],
            ),
            "tsls": (
                [0.3272836740037541, 0.32002115553943045, 0.35394568165673224],
                [0.047912209652385566, 0.05367711153290033, 0.04605956090396842],
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

    @pytest.mark.parametrize(
        "groups",
        [
            # 48000 group-a columns, read only for the summaries
            dict(m_a=48_000, m_b=1000, m_c=1000),
            # no group a: every column is read for the phenotypes too
            dict(m_b=25_000, m_c=25_000),
        ],
    )
    def test_streamed_replicate_never_holds_the_float_matrix(self, groups):
        # the float64 matrix would be 80 MB; the replicate holds int8 dosages
        # and one 2 MB block per read
        cfg = _tiny_cfg(n=200, **groups)
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
        source = genotype._read_dosages(gm, np.empty((0, gm.n)))[0]
        x = y = np.zeros(gm.n)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="n >= K"):
                harness._run_method("tsls", "all", source, None, None, x, y, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gm.n * gm.m  # less than the int8 dosages themselves

    @pytest.mark.parametrize("column", [0, 12, 22])  # in groups a, b and c
    def test_monomorphic_column_fails_its_replicate(self, monkeypatch, column):
        # the effect layout cannot drop a column, so replicate 1, whose
        # dosages hold a constant column, is a counted failure of every job
        simulate = harness.simulate_genotypes
        calls = []

        def one_constant_column(*args):
            gm = simulate(*args)
            if len(calls) == 1:
                gm.dosages[:, column] = 1
            calls.append(gm)
            return gm

        monkeypatch.setattr(harness, "simulate_genotypes", one_constant_column)
        jobs = [(tag, "all") for tag in METHOD_TAGS]
        results = run_scenario(_tiny_cfg(m_a=10), ReplicationSpec(reps=3, seed=4), jobs=jobs)
        assert len(calls) == 3
        for res in results:
            assert res.reps_failed == 1, res.method
            assert res.rep_index.tolist() == [0, 2]
            assert np.isfinite(res.estimates).all() and np.isfinite(res.ses).all()

    def test_bad_jobs_rejected(self):
        cfg = _tiny_cfg()
        spec = ReplicationSpec(reps=1)
        with pytest.raises(ConfigError):
            run_scenario(cfg, spec, jobs=[("nope", "all")])
        with pytest.raises(ConfigError):
            run_scenario(cfg, spec, jobs=[("tsre", "frac:1")])
        with pytest.raises(ConfigError):
            run_scenario(cfg, spec, jobs=DEFAULT_JOBS, threads=0)


# 300 variants: a median bootstrap on 'all' draws N_BOOT * 300 >= _SHARE_MIN_CELLS
# cells, one on 'top:20' 20000.
_HEAVY_CFG = dict(n=200, m_b=200, m_c=100)
_HEAVY_JOBS = [
    ("ivw", "all"),
    ("sm", "all"),
    ("tsls", "top:20"),
    ("wm", "all"),
    ("sm", "top:20"),
    ("wm", "top:20"),
    ("tsre", "all"),
]
_SHARED = [1, 3]  # the heavy jobs' indices


@pytest.fixture
def harness_shares(monkeypatch):
    """The job counts of the harness's _share_out calls."""
    seen = []
    real = harness._share_out

    def spy(start, count, shared):
        seen.append(count)
        return real(start, count, shared)

    monkeypatch.setattr(harness, "_share_out", spy)
    return seen


def _spare_cpu(monkeypatch, flag=True):
    """Patch the harness's gate and the sampler's and reads' gate."""
    monkeypatch.setattr(genotype, "_spare_cpu", lambda: flag)
    monkeypatch.setattr(harness, "_spare_cpu", lambda: flag)


def _heavy_replicate(rep=0):
    return harness._replicate_outcomes((_tiny_cfg(**_HEAVY_CFG), _HEAVY_JOBS, 2, 0, rep))


class TestSharedBootstraps:
    """The heavy median bootstraps of a replicate shared out between the
    calling thread and a helper."""

    @pytest.mark.parametrize(
        "tag,selection,cells",
        [
            ("sm", "all", N_BOOT * 300),
            ("wm", "pval:0.5", N_BOOT * 300),
            ("sm", "top:20", N_BOOT * 20),
            ("wm", "top:500", N_BOOT * 300),
            ("tsls", "all", 0),
            ("ivw", "all", 0),
        ],
    )
    def test_bootstrap_cells_read_the_spec(self, tag, selection, cells):
        assert harness._job_bootstrap_cells(tag, selection, 300) == cells

    def test_shared_outcomes_keep_their_bits(self, monkeypatch, harness_shares, fast_switching):
        for rep in (0, 1):
            _spare_cpu(monkeypatch, False)
            alone = _heavy_replicate(rep)
            _spare_cpu(monkeypatch, True)
            assert _heavy_replicate(rep) == alone
            assert None not in alone
        assert harness_shares == [2, 2]

    def test_no_thread_outlives_the_replicate(self, monkeypatch, harness_shares):
        _spare_cpu(monkeypatch)
        before = threading.active_count()
        _heavy_replicate()
        assert harness_shares == [2]
        assert threading.active_count() == before

    def test_other_jobs_run_in_the_calling_thread(self, monkeypatch, fast_switching):
        _spare_cpu(monkeypatch)
        real, ran = harness._run_method, {}

        def recording(tag, selection, *args):
            ran[(tag, selection)] = threading.get_ident()
            return real(tag, selection, *args)

        monkeypatch.setattr(harness, "_run_method", recording)
        _heavy_replicate()
        assert sorted(ran) == sorted(_HEAVY_JOBS)
        for j, job in enumerate(_HEAVY_JOBS):
            if j not in _SHARED:
                assert ran[job] == threading.get_ident(), job

    def test_a_helper_error_reaches_the_caller(self, monkeypatch):
        _spare_cpu(monkeypatch)
        real, helper_ran = harness._run_method, threading.Event()

        def failing_in_helper(*args):
            if threading.current_thread() is threading.main_thread():
                # hold the first job until the helper has taken the second
                helper_ran.wait(timeout=30)
                return real(*args)
            helper_ran.set()
            raise RuntimeError("helper failed")

        monkeypatch.setattr(harness, "_run_method", failing_in_helper)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            _heavy_replicate()
        assert helper_ran.is_set()
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "jobs",
        [
            # table2: every median job on top:20
            builtin_rows("table2")[0][2],
            # one heavy bootstrap has nothing to share with
            [("sm", "all"), ("wm", "top:20"), ("ivw", "all")],
        ],
    )
    def test_light_bootstraps_start_no_helper(self, monkeypatch, harness_shares, jobs):
        _spare_cpu(monkeypatch)

        def no_helper(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(genotype, "ThreadPoolExecutor", no_helper)
        cfg = builtin_rows("table2")[0][1]
        out = harness._replicate_outcomes((cfg, jobs, 0, 0, 0))
        assert None not in out
        assert harness_shares == []


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
        with pytest.warns(UserWarning, match="requested top 20"):
            paths = reproduce_table("custom", tmp_path, reps=3, seed=5, config=_tiny_cfg())
        results, scenarios = paths
        lines = Path(results).read_text().splitlines()
        # no omitted-method note on custom runs
        assert lines[0] == (
            "target,row_id,method,selection,mean,sd_mc,mean_se,bias,mse,reps,reps_failed"
        )
        assert len(lines) == 1 + len(DEFAULT_METHODS)
        cells = lines[1].split(",")
        assert cells[0] == "custom"
        assert float(cells[4]) == float(repr(float(cells[4])))  # repr round trip
        scen_lines = Path(scenarios).read_text().splitlines()
        assert scen_lines[0].startswith("row_id,n,m_a,")
        assert len(scen_lines) == 2

    def test_builtin_note_and_long_output(self, tmp_path, monkeypatch):
        # shrink a distribution target so the full writer path stays cheap
        rows = [("tiny", _tiny_cfg(), [("tsre", "all"), ("ivw", "top:5")])]
        monkeypatch.setitem(TARGETS, "fig3", lambda: rows)
        paths = reproduce_table("fig3", tmp_path, reps=3, seed=1)
        results, scenarios, long_path = paths
        lines = Path(results).read_text().splitlines()
        assert lines[0] == "# omitted methods: divw, raps, lasso (not implemented)"
        assert lines[1].startswith("target,row_id,")
        long_lines = Path(long_path).read_text().splitlines()
        assert long_lines[0] == "target,row_id,method,selection,rep,estimate,se"
        # 2 jobs x 3 reps, all successful
        assert len(long_lines) == 1 + 6
        rep_cells = [line.split(",") for line in long_lines[1:]]
        assert {c[4] for c in rep_cells} == {"0", "1", "2"}
        # every estimate and se cell is a plain float literal
        for cells in rep_cells:
            assert np.isfinite([float(cells[5]), float(cells[6])]).all()

    def test_byte_identical_across_threads(self, tmp_path):
        with pytest.warns(UserWarning, match="requested top 20"):
            a = reproduce_table("custom", tmp_path / "a", reps=4, seed=9, config=_tiny_cfg())
            b = reproduce_table(
                "custom", tmp_path / "b", reps=4, seed=9, threads=3, config=_tiny_cfg()
            )
        assert Path(a[0]).read_bytes() == Path(b[0]).read_bytes()
        assert Path(a[1]).read_bytes() == Path(b[1]).read_bytes()

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

    @pytest.mark.parametrize(
        "text, message", [("", "empty file"), ("id,value\n", "no data rows")],
        ids=["empty", "header_only"],
    )
    def test_empty_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
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

    @pytest.mark.parametrize("chunk", [None, 3 * 80])
    def test_monomorphic_columns_are_dropped(self, real_data, tmp_path, monkeypatch, chunk):
        # the file's dosages are read once in int8 blocks (3 columns wide,
        # the last one column wide, with chunk set); its monomorphic columns
        # are dropped as standardize drops them
        if chunk is not None:
            monkeypatch.setattr(genotype, "_CHUNK_CELLS", chunk)
        gpath, xpath, ypath, gm, pheno = real_data
        gm = load_genotypes(gpath)
        gm.dosages[:, [0, 17]] = 2
        mono = tmp_path / "mono.csv"
        save_genotypes(gm, mono)
        std = standardize(gm)
        assert std.dropped_variants == [0, 17] and std.m == 24
        want = tsre_estimate(std, pheno.x, pheno.y)
        for selection, m_used in (("all", 24), ("top:24", 24)):
            res = estimate_real(mono, xpath, ypath, method="tsre", selection=selection)
            assert res.m_used == m_used
            assert res.theta_hat == pytest.approx(want.theta_hat, rel=1e-12)
            assert res.se == pytest.approx(want.se, rel=1e-12)
        summaries = per_variant_regression(std, pheno.x, pheno.y)
        want = ivw(summaries[select_top_k(summaries, 20)])
        res = estimate_real(mono, xpath, ypath, method="ivw")
        assert (res.m_used, res.n) == (20, 80)
        assert res.theta_hat == pytest.approx(want.theta_hat, rel=1e-12)
        assert res.se == pytest.approx(want.se, rel=1e-12)

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

    def test_a_grm_file_is_checked_on_the_one_read(self, real_data, tmp_path, monkeypatch):
        # the row norms of the read for the summaries check the file's diagonal
        gpath, xpath, ypath, *_ = real_data
        grm_path = tmp_path / "a.grm"
        save_grm(compute_grm(standardize(load_genotypes(gpath))), grm_path)
        reads = []
        block_sum = genotype._block_sum
        monkeypatch.setattr(
            genotype, "_block_sum", lambda *args: reads.append(args[1]) or block_sum(*args)
        )
        estimate_real(gpath, xpath, ypath, method="tsre", grm_path=grm_path)
        assert reads == [(80,)]

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
        # the fit is that of the kept sample, whose dosages are read again
        # (ties go to the lower index, so individual 1 goes)
        sub = tmp_path / "exposure_sub.csv"
        save_phenotype(sub, gm.individual_ids[1:], pheno.x[1:])
        want = estimate_real(dup_path, sub, ypath, method="tsre")
        assert (res.n, res.m_used, res.theta_hat, res.se) == (
            want.n, want.m_used, want.theta_hat, want.se)

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
