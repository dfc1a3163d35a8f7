"""Genotype simulation, standardization, GRM construction, and persistence."""

import math
import multiprocessing
import struct
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from tsre import genotype
from tsre.errors import ConfigError, DataError, EstimationError
from tsre.genotype import (
    GenotypeMatrix,
    Grm,
    compute_grm,
    filter_related,
    load_genotypes,
    load_grm,
    save_genotypes,
    save_grm,
    simulate_genotypes,
    standardize,
)

from tsre.simulate import ScenarioConfig, generate_phenotypes, sample_effects
from tsre.sumstats import SUMMARY_DTYPE, _dosage_summaries, per_variant_regression

from conftest import packed_to_dense, random_standardized


class TestGenotypeMatrix:
    def test_repeated_variant_id_rejected(self):
        # save_genotypes could otherwise write a header load_genotypes rejects
        with pytest.raises(DataError, match="variant id 'v2' names more than one column"):
            GenotypeMatrix(dosages=np.zeros((2, 4), dtype=np.int8),
                           variant_ids=["v1", "v2", "v3", "v2"])

    def test_dosages_must_be_a_matrix(self):
        with pytest.raises(DataError, match="^dosage matrix must be 2-dimensional$"):
            GenotypeMatrix(dosages=np.zeros(4, dtype=np.int8), variant_ids=["v1"])

    def test_one_variant_id_per_column(self):
        with pytest.raises(DataError, match="^variant id count does not match dosage columns$"):
            GenotypeMatrix(dosages=np.zeros((2, 3), dtype=np.int8), variant_ids=["v1", "v2"])

    def test_one_individual_id_per_row(self):
        # save_genotypes would write two rows and silently drop the third
        with pytest.raises(DataError, match="^individual id count does not match dosage rows$"):
            GenotypeMatrix(dosages=np.zeros((3, 2), dtype=np.int8), variant_ids=["v1", "v2"],
                           individual_ids=["a", "b"])

    def test_repeated_individual_id_rejected(self, tmp_path):
        # save_genotypes would write the file below, which load_genotypes rejects
        with pytest.raises(DataError, match="^individual id 'a' names more than one row$"):
            GenotypeMatrix(dosages=np.zeros((3, 1), dtype=np.int8), variant_ids=["v1"],
                           individual_ids=["a", "b", "a"])
        path = tmp_path / "g.csv"
        path.write_text("id,v1\na,0\nb,0\na,0\n")
        with pytest.raises(DataError, match="line 4: duplicate id 'a'"):
            load_genotypes(path)


class TestSimulateGenotypes:
    def test_values_and_shape(self, rng):
        gm = simulate_genotypes(50, 30, 0.2, 0.3, rng)
        assert gm.dosages.shape == (50, 30)
        assert set(np.unique(gm.dosages)) <= {0, 1, 2}

    def test_variant_id_format(self, rng):
        gm = simulate_genotypes(3, 12, 0.2, 0.3, rng)
        assert gm.variant_ids[0] == "v00001"
        assert gm.variant_ids[-1] == "v00012"
        wide = simulate_genotypes(2, 7, 0.2, 0.3, rng)
        assert all(len(v) == 6 for v in wide.variant_ids)

    def test_variant_ids_are_a_fresh_list_each_time(self, rng):
        # built once per m, but a caller may change its own list
        a = simulate_genotypes(3, 12, 0.2, 0.3, rng)
        a.variant_ids[0] = "changed"
        b = simulate_genotypes(3, 12, 0.2, 0.3, rng)
        assert b.variant_ids == [f"v{k:05d}" for k in range(1, 13)]

    def test_deterministic_given_seed(self):
        a = simulate_genotypes(20, 10, 0.2, 0.3, np.random.default_rng(5))
        b = simulate_genotypes(20, 10, 0.2, 0.3, np.random.default_rng(5))
        assert np.array_equal(a.dosages, b.dosages)

    def test_dosage_frequencies_track_maf(self):
        rng = np.random.default_rng(99)
        gm = simulate_genotypes(20000, 5, 0.25, 0.25, rng)
        freq = gm.dosages.mean(axis=0) / 2
        np.testing.assert_allclose(freq, 0.25, atol=0.01)
        # frequencies drawn from a range: each column's dosage frequency lies
        # in it, give or take 0.01 (about 5 sd at n = 50000)
        gm = simulate_genotypes(50000, 30, 0.2, 0.3, rng)
        freq = gm.dosages.mean(axis=0) / 2
        assert np.all((freq >= 0.2 - 0.01) & (freq <= 0.3 + 0.01))

    def test_argument_validation(self, rng):
        with pytest.raises(DataError):
            simulate_genotypes(0, 5, 0.2, 0.3, rng)
        with pytest.raises(DataError):
            simulate_genotypes(5, 0, 0.2, 0.3, rng)
        with pytest.raises(DataError):
            simulate_genotypes(5, 5, 0.0, 0.3, rng)
        with pytest.raises(DataError):
            simulate_genotypes(5, 5, 0.4, 0.2, rng)


def _binomial_reference(n, m, lo, hi, seed):
    """simulate_genotypes written with rng.binomial, and the rng it leaves."""
    rng = np.random.default_rng(seed)
    maf = rng.uniform(lo, hi, size=m)
    return rng.binomial(2, maf, size=(n, m)).astype(np.int8), rng


def _numpy_inversion(p, u):
    """NumPy's Binomial(2, p) inversion on one uniform, as a scalar loop:
    the count, or None where NumPy would draw a fresh uniform."""
    if p > 0.5:
        x = _numpy_inversion(1.0 - p, u)
        return None if x is None else 2 - x
    q = 1.0 - p
    px = math.exp(2 * math.log(q))
    x = 0
    while u > px:
        x += 1
        if x > 2:
            return None
        u -= px
        px = ((3 - x) * p * px) / (x * q)
    return x


class TestSimulateGenotypesIsNumpyBinomial:
    """Dosages and the generator's later stream equal rng.binomial's."""

    def _assert_matches(self, n, m, lo, hi, seed):
        want, ref_rng = _binomial_reference(n, m, lo, hi, seed)
        rng = np.random.default_rng(seed)
        got = simulate_genotypes(n, m, lo, hi, rng).dosages
        assert got.dtype == np.int8
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "n,m,lo,hi",
        [
            (40, 30, 0.05, 0.45),  # every p below 0.5
            (60, 50, 0.3, 0.7),  # p straddling 0.5
            (50, 40, 0.55, 0.95),  # every p above 0.5: counts flipped
            (30, 20, 0.5, 0.5),  # p exactly 0.5 is not flipped
            (80, 25, 1e-9, 1e-8),  # p near zero
            (997, 301, 0.01, 0.99),  # 870 rows per chunk: a short last chunk
            (3, 300_001, 0.2, 0.3),  # a row wider than a chunk's cell budget
            (8, 300_001, 0.2, 0.3),  # several such rows
        ],
    )
    def test_matches_rng_binomial(self, n, m, lo, hi, seed):
        self._assert_matches(n, m, lo, hi, seed)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_many_small_chunks(self, monkeypatch, seed):
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 64)  # 6 rows of 10
        self._assert_matches(25, 10, 0.1, 0.9, seed)

    def test_redraw_path_is_rng_binomial(self, monkeypatch):
        # NumPy redraws about one cell in 1e16, so force the fallback on
        # every chunk: restoring the state and calling rng.binomial must
        # reproduce both the dosages and the later stream
        calls = []

        def always(*args):
            calls.append(1)
            return True

        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 64)
        monkeypatch.setattr(genotype, "_redraw_possible", always)
        for spare in (True, False):
            monkeypatch.setattr(genotype, "_spare_cpu", lambda: spare)
            calls.clear()
            self._assert_matches(25, 10, 0.1, 0.9, 5)
            # the chunks stop at the first one of each thread that drew
            # one, and rng.binomial draws the whole matrix without asking
            assert len(calls) in ((1, 2) if spare else (1,))

    def test_redraw_in_a_later_chunk_is_rng_binomial(self, monkeypatch):
        # fire only on the chunk holding row 18, the fourth of five: the
        # chunks stop there, whichever thread drew it, and rng.binomial
        # draws the whole matrix again from the saved state
        n, m, seed = 25, 10, 5
        ref = np.random.default_rng(seed)
        ref.uniform(0.1, 0.9, size=m)
        marker = ref.random((n, m))[18, 0]
        real = genotype._redraw_possible
        fired = []

        def at_marker(u, *cuts):
            if np.any(u == marker):
                fired.append(threading.current_thread() is threading.main_thread())
                return True
            return real(u, *cuts)

        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 64)
        monkeypatch.setattr(genotype, "_redraw_possible", at_marker)
        for spare in (True, False):
            monkeypatch.setattr(genotype, "_spare_cpu", lambda: spare)
            fired.clear()
            self._assert_matches(n, m, 0.1, 0.9, seed)
            assert len(fired) == 1
            assert fired[0] or spare

    def test_redraw_check_agrees_with_numpy_loop(self):
        # the largest uniform redraws in some columns; a chunk holding it is
        # flagged exactly when NumPy's own loop would redraw
        maf = np.random.default_rng(6).uniform(0.01, 0.99, size=400)
        cuts = genotype._binomial2_cuts(maf)[1:]
        redraws = [_numpy_inversion(p, genotype._U_MAX) is None for p in maf.tolist()]
        assert 0 < sum(redraws) < len(redraws)
        for k, expected in enumerate(redraws):
            column = tuple(c[k : k + 1] for c in cuts)
            assert genotype._redraw_possible(np.array([[0.5], [genotype._U_MAX]]), *column) == expected
            assert not genotype._redraw_possible(np.array([[0.999]]), *column)

    def test_counts_follow_numpy_loop(self):
        # uniforms at and one ulp either side of each column's two cut points
        # give the counts of NumPy's own loop, whichever side of 0.5 p is on
        maf = np.random.default_rng(7).uniform(0.01, 0.99, size=50)
        _, qn, px1, _ = genotype._binomial2_cuts(maf)
        u = np.array(
            [np.nextafter(edge, toward) for edge in (qn, qn + px1) for toward in (0.0, 2.0)]
            + [qn, qn + px1]
        )
        cuts = genotype._binomial2_cuts(maf)
        got = np.empty(u.shape, dtype=np.int8)
        u_buf, hit_buf = np.empty(u.shape), np.empty(u.shape, dtype=bool)
        # every column checked for a redraw, which none of these uniforms makes
        assert genotype._fill(got, u_buf, hit_buf, (*cuts, cuts[1:]), _GivenUniforms(u))
        want = [[_numpy_inversion(p, v) for p, v in zip(maf.tolist(), row)] for row in u.tolist()]
        assert np.array_equal(got, np.array(want, dtype=np.int8))


def _spare_cpu(monkeypatch, flag=True):
    monkeypatch.setattr(genotype, "_spare_cpu", lambda: flag)


class TestSharedSampler:
    """The sampler's chunks shared out between the calling thread and a
    helper, each drawn from an advanced copy of the bit generator, against
    rng.binomial."""

    @staticmethod
    def _draws(bits, seed, m, sample):
        """(dosages, later int32 draws, later double) from a generator that
        holds a buffered 32-bit half when sample(rng, maf) draws the dosages."""
        rng = np.random.Generator(bits(seed))
        rng.integers(0, 7, dtype=np.int32)
        maf = rng.uniform(0.1, 0.9, size=m)
        dosages = sample(rng, maf)
        return dosages, rng.integers(0, 2**31 - 1, size=3, dtype=np.int32), rng.random()

    def _assert_matches(self, bits, seed, n, m):
        got = self._draws(bits, seed, m, lambda rng, maf: genotype._binomial2(maf, n, rng))
        want = self._draws(bits, seed, m, lambda rng, maf: rng.binomial(2, maf, size=(n, m)))
        assert np.array_equal(got[0], want[0].astype(np.int8))
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @pytest.mark.parametrize(
        "n,m,chunk,chunks",
        [
            (25, 10, 64, 5),  # 5 chunks of 6 rows, the last short
            (24, 10, 64, 4),  # 4 whole chunks
            (3, 300_001, None, 3),  # 3 chunks of one row
            (997, 301, None, 2),  # 2 chunks, the second short
            (1000, 53, 53 * 28, 36),  # 36 chunks of 28 rows
        ],
    )
    def test_shared_chunks_match_rng_binomial(
        self, monkeypatch, shares, fast_switching, n, m, chunk, chunks
    ):
        _spare_cpu(monkeypatch)
        if chunk is not None:
            monkeypatch.setattr(genotype, "_CHUNK_CELLS", chunk)
        self._assert_matches(np.random.PCG64, 11, n, m)
        assert shares == [chunks]

    def test_a_slow_helper_draws_fewer_chunks(self, monkeypatch, shares):
        # a helper whose CPU is taken leaves the chunks it has not started to
        # the calling thread, and the bits do not depend on who drew what
        _spare_cpu(monkeypatch)
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 53 * 28)
        real, on_main = genotype._fill, []

        def slow_helper(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            if not on_main[-1]:
                time.sleep(0.005)
            return real(*args)

        monkeypatch.setattr(genotype, "_fill", slow_helper)
        self._assert_matches(np.random.PCG64, 14, 1000, 53)
        assert shares == [36] and len(on_main) == 36
        assert on_main.count(True) > on_main.count(False)

    @pytest.mark.parametrize(
        "bits,shared",
        [
            (np.random.PCG64DXSM, [5]),
            (np.random.MT19937, []),  # no advance
            (np.random.SFC64, []),  # no advance
            (np.random.Philox, []),  # advance counts blocks of four outputs
        ],
    )
    def test_only_pcg64_generators_share(self, monkeypatch, shares, bits, shared):
        _spare_cpu(monkeypatch)
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 64)
        self._assert_matches(bits, 12, 25, 10)
        assert shares == shared

    @pytest.mark.parametrize(
        "bits",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.SFC64, np.random.Philox],
    )
    def test_one_thread_chunks_match_rng_binomial(self, monkeypatch, shares, bits):
        # the one chunk loop, run by the calling thread alone: its copy of
        # the generator never advances, and hands its state back
        _spare_cpu(monkeypatch, False)
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 64)  # 5 chunks
        self._assert_matches(bits, 15, 25, 10)
        assert shares == []

    def test_one_cpu_takes_one_thread(self, monkeypatch, shares):
        monkeypatch.setattr(genotype.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 64)
        assert not genotype._spare_cpu()
        self._assert_matches(np.random.PCG64, 13, 25, 10)
        assert shares == []

    def test_a_pool_worker_takes_one_thread(self, monkeypatch):
        """run_scenario's workers at --threads >= 2 already share the CPUs."""
        monkeypatch.setattr(genotype.os, "sched_getaffinity", lambda pid: {0, 1})
        assert genotype._spare_cpu()
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
            assert pool.submit(genotype._spare_cpu).result() is False

    def test_no_thread_outlives_the_draw(self, monkeypatch, shares):
        _spare_cpu(monkeypatch)
        before = threading.active_count()
        gm = simulate_genotypes(600, 1000, 0.05, 0.5, np.random.default_rng(1))
        _dosage_summaries(gm, np.arange(600.0), np.arange(600.0) % 7)
        assert shares == [3, 3]  # 262-row chunks, 436-column blocks
        assert threading.active_count() == before


class _GivenUniforms:
    """A stand-in Generator whose random() fills in fixed uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u


class TestStandardize:
    def test_columns_have_zero_mean_unit_variance(self, rng):
        std = random_standardized(rng, 40, 8)
        np.testing.assert_allclose(std.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            np.mean(std.values**2, axis=0), 1.0, rtol=1e-12
        )

    def test_matches_direct_formula(self):
        d = np.array([[0, 2], [1, 0], [2, 1], [1, 1]], dtype=np.int8)
        gm = GenotypeMatrix(dosages=d, variant_ids=["a", "b"])
        std = standardize(gm)
        dd = d.astype(float)
        want = (dd - dd.mean(axis=0)) / dd.std(axis=0)
        np.testing.assert_allclose(std.values, want, rtol=1e-14)

    def test_monomorphic_columns_dropped(self):
        d = np.array([[1, 0, 2], [1, 1, 0], [1, 2, 1]], dtype=np.int8)
        gm = GenotypeMatrix(dosages=d, variant_ids=["c0", "c1", "c2"])
        std = standardize(gm)
        assert std.dropped_variants == [0]
        assert std.variant_ids == ["c1", "c2"]
        assert std.m == 2

    def test_all_monomorphic_is_an_error(self):
        d = np.ones((4, 2), dtype=np.int8)
        gm = GenotypeMatrix(dosages=d, variant_ids=["a", "b"])
        with pytest.raises(DataError):
            standardize(gm)


def _assert_close(got, want, tol=1e-12):
    """got equals want to tol relative to the largest |want|: a near-zero
    entry is a difference of large terms, whose rounding scales with them."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * np.max(np.abs(want)))


class TestDosageReads:
    """The int8 reads of a replicate and of `tsre estimate` against the
    standardized matrix held whole."""

    @staticmethod
    def _matrix(n, m, monomorphic=()):
        gm = simulate_genotypes(n, m, 0.05, 0.5, np.random.default_rng(n + m))
        gm.dosages[:, list(monomorphic)] = 1
        return gm

    @pytest.mark.parametrize(
        "n,m,monomorphic,chunk",
        [
            # three monomorphic columns, blocks of 873 columns
            (300, 2000, (5, 900, 1999), None),
            # n > _CHUNK_CELLS / 64: blocks 64 columns wide, the last two
            (2100, 130, (), 64 * 2100),
            # blocks 5 columns wide, the last one column wide
            (50, 21, (3,), 5 * 50),
            # one column per block
            (40, 6, (), 1),
        ],
    )
    def test_fused_read_is_standardize(self, monkeypatch, n, m, monomorphic, chunk):
        if chunk is not None:
            monkeypatch.setattr(genotype, "_CHUNK_CELLS", chunk)
        gm = self._matrix(n, m, monomorphic)
        rng = np.random.default_rng(m)
        x = 3.0 + rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        want = standardize(gm)
        summaries, source, d = _dosage_summaries(gm, x, y)
        assert source.dosages.dtype == np.int8
        assert (source.n, source.m) == (want.n, want.m)
        assert source.variant_ids == want.variant_ids == summaries.variant_id.tolist()
        assert source.dropped_variants == want.dropped_variants == sorted(monomorphic)
        dense = per_variant_regression(want, x, y)
        for name in SUMMARY_DTYPE.names[1:]:
            _assert_close(summaries[name], dense[name])
        _assert_close(d, genotype._row_norms(want.values))
        cols = [want.m - 1, 0, 3, want.m // 2, 3]
        for order in ("C", "F"):
            got = source.columns(cols, order)
            assert got.flags[f"{order}_CONTIGUOUS"]
            _assert_close(got, want.values[:, cols], 1e-15)
        _assert_close(source.columns(slice(1, want.m - 1), "C"), want.values[:, 1:-1], 1e-15)

    def test_read_without_traits_gives_the_row_norms(self):
        gm = self._matrix(30, 12, (4,))
        source, gram, products, d = genotype._read_dosages(gm, np.empty((0, 30)))
        want = standardize(gm)
        assert products.shape == (0, want.m)
        _assert_close(gram, np.full(want.m, 30.0))
        _assert_close(d, genotype._row_norms(want.values))
        assert source.dropped_variants == [4]

    def test_all_monomorphic_is_an_error(self):
        gm = GenotypeMatrix(dosages=np.ones((4, 3), dtype=np.int8), variant_ids=["a", "b", "c"])
        with pytest.raises(DataError, match="monomorphic"):
            genotype._read_dosages(gm, np.empty((0, 4)))

    @pytest.mark.parametrize("chunk", [None, 7 * 120])
    def test_int8_phenotypes_are_the_dense_ones(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(genotype, "_CHUNK_CELLS", chunk)
        cfg = ScenarioConfig(n=120, m_a=30, m_b=20, m_c=15, m_d=10, sigma_gb=0.1,
                             sigma_gc_x=0.1, sigma_gc_y=0.1, sigma_gd=0.1, theta=0.3)
        gm = simulate_genotypes(cfg.n, cfg.m_total, 0.2, 0.3, np.random.default_rng(4))
        effects = sample_effects(cfg, np.random.default_rng(5))
        got = generate_phenotypes(gm, effects, cfg, np.random.default_rng(6))
        want = generate_phenotypes(standardize(gm), effects, cfg, np.random.default_rng(6))
        np.testing.assert_allclose(got.x, want.x, rtol=1e-12)
        np.testing.assert_allclose(got.y, want.y, rtol=1e-12)

    def test_int8_phenotypes_refuse_a_monomorphic_column(self):
        cfg = ScenarioConfig(n=40, m_a=3, m_b=4, sigma_gb=0.1)
        gm = self._matrix(cfg.n, cfg.m_total, (5,))
        effects = sample_effects(cfg, np.random.default_rng(0))
        with pytest.raises(DataError, match="monomorphic"):
            generate_phenotypes(gm, effects, cfg, np.random.default_rng(0))


class TestSharedRead:
    """A column read shared out between the calling thread and a helper,
    against the same read in one thread."""

    @staticmethod
    def _read(monkeypatch, gm, traits, shared):
        _spare_cpu(monkeypatch, shared)
        source, gram, products, d = genotype._read_dosages(gm, traits)
        return (source.dosages, source.mean, source.sd, gram, products, d,
                source.variant_ids, source.dropped_variants)

    # blocks of 5 columns: 61 blocks, the last of one column
    @pytest.mark.parametrize("monomorphic", [(), (3,), (200,), (3, 154, 155, 300)])
    def test_shared_read_is_the_one_thread_read(
        self, monkeypatch, shares, fast_switching, monomorphic
    ):
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 5 * 60)
        gm = TestDosageReads._matrix(60, 301, monomorphic)
        shares.clear()  # the sampler's
        traits = np.random.default_rng(3).normal(size=(2, 60))
        one = self._read(monkeypatch, gm, traits, False)
        assert shares == []
        two = self._read(monkeypatch, gm, traits, True)
        assert shares == [61]
        for got, want in zip(two, one):
            assert np.array_equal(got, want)
        assert two[-1] == sorted(monomorphic)

    def test_a_read_too_large_to_hold_runs_in_one_thread(self, monkeypatch, shares):
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 5 * 60)
        monkeypatch.setattr(genotype, "_SHARED_HELD_CELLS", 61 * 60 - 1)  # 61 blocks held
        gm = TestDosageReads._matrix(60, 301)
        shares.clear()  # the sampler's
        self._read(monkeypatch, gm, np.empty((0, 60)), True)
        assert shares == []
        monkeypatch.setattr(genotype, "_SHARED_HELD_CELLS", 61 * 60)
        self._read(monkeypatch, gm, np.empty((0, 60)), True)
        assert shares == [61]

    @pytest.mark.parametrize("column", [2, 40])  # first block, last block
    def test_an_error_in_either_thread_reaches_the_caller(self, monkeypatch, shares, column):
        _spare_cpu(monkeypatch)
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 5 * 60)
        gm = TestDosageReads._matrix(60, 44, (column,))
        shares.clear()  # the sampler's
        before = threading.active_count()
        with pytest.raises(DataError, match="cannot standardize a monomorphic column"):
            genotype._standardized_product(gm.dosages, np.ones((44, 2)))
        assert shares == [9]
        assert threading.active_count() == before

    def test_a_helper_error_stops_the_caller_and_reaches_it(self, monkeypatch):
        # shares on a one-CPU host too
        _spare_cpu(monkeypatch)
        done = []

        def start():
            on_helper = threading.current_thread() is not threading.main_thread()

            def work(k):
                if on_helper:
                    raise DataError("from the helper")
                time.sleep(0.001)
                done.append(k)

            return work

        before = threading.active_count()
        with pytest.raises(DataError, match="from the helper"):
            genotype._share_out(start, 1000, True)
        assert len(done) < 999
        assert threading.active_count() == before

    def test_shared_product_is_the_one_thread_product(self, monkeypatch):
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 5 * 60)
        gm = TestDosageReads._matrix(60, 44)
        w = np.random.default_rng(4).normal(size=(44, 2))
        _spare_cpu(monkeypatch, False)
        one = genotype._standardized_product(gm.dosages, w)
        _spare_cpu(monkeypatch, True)
        assert np.array_equal(genotype._standardized_product(gm.dosages, w), one)


class TestComputeGrm:
    @pytest.mark.parametrize("n,m,seed", [(5, 3, 0), (20, 7, 1), (50, 20, 2), (37, 11, 3)])
    def test_matches_triple_loop_oracle(self, n, m, seed):
        std = random_standardized(np.random.default_rng(seed), n, m)
        grm = compute_grm(std)
        z = std.values
        dense = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(std.m):
                    acc += z[i, k] * z[j, k]
                dense[i, j] = acc / std.m
        np.testing.assert_allclose(
            packed_to_dense(grm.lower_triangle, n), dense, rtol=1e-12, atol=1e-12
        )

    def test_trace_equals_sample_size(self, rng):
        std = random_standardized(rng, 30, 9)
        grm = compute_grm(std)
        assert abs(grm.diagonal().sum() - 30) < 1e-9

    def test_m_effective_counts_retained_variants(self):
        d = np.array([[1, 0, 2], [1, 1, 0], [1, 2, 1], [1, 0, 0]], dtype=np.int8)
        gm = GenotypeMatrix(dosages=d, variant_ids=["c0", "c1", "c2"])
        grm = compute_grm(standardize(gm))
        assert grm.m_effective == 2


class TestFilterRelated:
    def _grm_from_dense(self, a):
        n = a.shape[0]
        tri = np.array([a[i, j] for i in range(n) for j in range(i + 1)])
        return Grm(n=n, lower_triangle=tri, m_effective=1)

    def test_no_violations_keeps_everyone(self):
        a = np.eye(5)
        kept = filter_related(self._grm_from_dense(a), 0.05)
        assert kept.tolist() == [0, 1, 2, 3, 4]

    def test_hub_is_removed_first(self):
        # individual 0 is related to 1, 2, 3; removing it resolves everything
        a = np.eye(5)
        for j in (1, 2, 3):
            a[0, j] = a[j, 0] = 0.9
        kept = filter_related(self._grm_from_dense(a), 0.5)
        assert kept.tolist() == [1, 2, 3, 4]

    def test_tie_breaks_to_lower_index(self):
        # single related pair: both have degree 1, the lower index goes
        a = np.eye(4)
        a[1, 2] = a[2, 1] = 0.8
        kept = filter_related(self._grm_from_dense(a), 0.5)
        assert kept.tolist() == [0, 2, 3]

    def test_negative_relatedness_counts(self):
        a = np.eye(4)
        a[0, 3] = a[3, 0] = -0.9
        kept = filter_related(self._grm_from_dense(a), 0.5)
        assert 0 not in kept or 3 not in kept

    def test_random_grm_post_condition(self):
        # exhaustive scan: no retained pair may violate the cutoff
        rng = np.random.default_rng(21)
        z = rng.normal(size=(30, 3))
        a = z @ z.T / 3
        cutoff = 0.4
        kept = filter_related(self._grm_from_dense(a), cutoff)
        for u in kept:
            for v in kept:
                if u != v:
                    assert abs(a[u, v]) < cutoff

    @pytest.mark.parametrize("cutoff", [0.0, -0.1, np.nan, np.inf])
    def test_cutoff_must_be_positive(self, cutoff):
        with pytest.raises(ConfigError):
            filter_related(self._grm_from_dense(np.eye(3)), cutoff)

    def test_degenerate_result_is_an_error(self):
        a = np.full((3, 3), 0.9)
        np.fill_diagonal(a, 1.0)
        with pytest.raises(EstimationError):
            filter_related(self._grm_from_dense(a), 0.5)


class TestGenotypeIO:
    def test_round_trip(self, rng, tmp_path):
        gm = simulate_genotypes(6, 4, 0.2, 0.3, rng)
        path = tmp_path / "g.csv"
        save_genotypes(gm, path)
        back = load_genotypes(path)
        assert np.array_equal(back.dosages, gm.dosages)
        assert back.variant_ids == gm.variant_ids
        assert back.individual_ids == [f"i{r:06d}" for r in range(1, 7)]

    def test_explicit_ids_preserved(self, tmp_path):
        gm = GenotypeMatrix(
            dosages=np.array([[0, 1], [2, 1]], dtype=np.int8),
            variant_ids=["rs1", "rs2"],
            individual_ids=["alice", "bob"],
        )
        path = tmp_path / "g.csv"
        save_genotypes(gm, path)
        back = load_genotypes(path)
        assert back.individual_ids == ["alice", "bob"]

    @pytest.mark.parametrize(
        "text",
        [
            "id,v1\ni1,0\ni2,3\n",
            # the first fault in the file is reported, not a later ragged row
            "id,v1,v2\ni1,0,1\ni2,1,3\ni3,2,0\ni4,1\n",
        ],
        ids=["bad_cell", "bad_cell_then_ragged"],
    )
    def test_bad_dosage_rejected_with_line_number(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="line 3"):
            load_genotypes(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("id,v1,v2\ni1,0,1\ni2,0\n")
        with pytest.raises(DataError, match="line 3"):
            load_genotypes(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("id,v1\ni1,0\ni1,2\n")
        with pytest.raises(DataError, match="line 3: duplicate id 'i1'"):
            load_genotypes(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("id,v1,v2\n\ni1,0,1\n\ni2,2,1\n\n")
        back = load_genotypes(path)
        assert back.individual_ids == ["i1", "i2"]
        assert back.dosages.dtype == np.int8 and back.dosages.flags.c_contiguous
        assert back.dosages.tolist() == [[0, 1], [2, 1]]

    @pytest.mark.parametrize(
        "dosages, message, written, verdict",
        [
            (np.array([[0.0, 1.0]]), r"dosages must be integers \(got float64\)",
             "id,v1,v2\ni000001,0.0,1.0\n", r"variant 'v1': dosage must be 0, 1, or 2 \(got '0.0'\)"),
            (np.array([[1, 3]], dtype=np.int8), r"dosage must be 0, 1, or 2 \(got 3\)",
             "id,v1,v2\ni000001,1,3\n", r"variant 'v2': dosage must be 0, 1, or 2 \(got '3'\)"),
        ],
        ids=["float", "three"],
    )
    def test_save_refuses_what_load_rejects(self, tmp_path, dosages, message, written, verdict):
        path = tmp_path / "g.csv"
        with pytest.raises(DataError, match=f"^{message}$"):
            save_genotypes(GenotypeMatrix(dosages=dosages, variant_ids=["v1", "v2"]), path)
        assert not path.exists()
        # the file it would have written, and load_genotypes' verdict on it
        path.write_text(written)
        with pytest.raises(DataError, match=f"g.csv: line 2, {verdict}$"):
            load_genotypes(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("ident,v1\ni1,0\n")
        with pytest.raises(DataError):
            load_genotypes(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_genotypes(path)


class TestGrmIO:
    def test_round_trip(self, rng, tmp_path):
        grm = compute_grm(random_standardized(rng, 12, 5))
        path = tmp_path / "a.grm"
        save_grm(grm, path)
        back = load_grm(path)
        assert back.n == grm.n
        assert back.m_effective == grm.m_effective
        assert np.array_equal(back.lower_triangle, grm.lower_triangle)

    @pytest.mark.parametrize(
        "tri",
        [
            np.array([1.0, 0.25, 1.0]),
            np.array([1.0, 0.1, 1.0], dtype=np.float32),
            np.array([1.0, 9.0, 0.25, 9.0, 1.0])[::2],
            np.array([1.0, 0.25, 1.0], dtype=">f8"),
        ],
        ids=["float64", "float32", "strided", "big-endian"],
    )
    def test_binary_layout(self, tmp_path, tri):
        # float64 triangles are written from their own buffer, others converted
        grm = Grm(n=2, lower_triangle=tri, m_effective=7)
        path = tmp_path / "a.grm"
        save_grm(grm, path)
        raw = path.read_bytes()
        assert raw == b"GRM1" + struct.pack("<QQ", 2, 7) + tri.astype("<f8").tobytes()
        back = load_grm(path)
        assert (back.n, back.m_effective) == (2, 7)
        assert np.array_equal(back.lower_triangle, tri.astype(np.float64))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_save_refuses_a_non_finite_entry(self, tmp_path, bad):
        tri = np.array([1.0, bad, 1.0])
        path = tmp_path / "a.grm"
        with pytest.raises(DataError, match="^1 GRM entries are NaN or infinite$"):
            save_grm(Grm(n=2, lower_triangle=tri, m_effective=3), path)
        assert not path.exists()
        # the file it would have written, and load_grm's verdict on it
        path.write_bytes(b"GRM1" + struct.pack("<QQ", 2, 3) + tri.astype("<f8").tobytes())
        with pytest.raises(DataError, match="a.grm: 1 GRM entries are NaN or infinite"):
            load_grm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.grm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_grm(path)

    def test_triangle_length_must_match_n(self):
        with pytest.raises(DataError, match=r"packed triangle has length \(4,\), expected \(3,\)"):
            Grm(n=2, lower_triangle=np.ones(4), m_effective=3)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "a.grm"
        path.write_bytes(b"GRM1" + struct.pack("<Q", 2))
        with pytest.raises(DataError, match="a.grm: truncated GRM header"):
            load_grm(path)

    @pytest.mark.parametrize("m_effective", [0, -5])
    def test_variant_count_below_one_rejected(self, m_effective):
        with pytest.raises(DataError, match=f"m_effective >= 1, got {m_effective}"):
            Grm(n=2, lower_triangle=np.array([1.0, 0.25, 1.0]), m_effective=m_effective)

    def test_zero_variant_header_rejected(self, tmp_path):
        path = tmp_path / "a.grm"
        path.write_bytes(b"GRM1" + struct.pack("<QQ", 2, 0) + np.ones(3).astype("<f8").tobytes())
        with pytest.raises(DataError, match="a.grm: GRM header has m_effective=0"):
            load_grm(path)

    def test_truncated_triangle_rejected(self, tmp_path):
        tri = np.array([1.0, 0.25, 1.0])
        path = tmp_path / "a.grm"
        save_grm(Grm(n=2, lower_triangle=tri, m_effective=3), path)
        whole = path.read_bytes()
        # 8 and 3 bytes cut, 3 bytes added
        for raw, size in ((whole[:-8], 16), (whole[:-3], 21), (whole + b"\0" * 3, 27)):
            path.write_bytes(raw)
            with pytest.raises(DataError, match=f"a.grm: triangle has {size} bytes, expected 24"):
                load_grm(path)
