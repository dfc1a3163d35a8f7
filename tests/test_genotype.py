"""Genotype simulation, standardization, GRM construction, and persistence."""

import struct

import numpy as np
import pytest

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

from conftest import packed_to_dense, random_standardized


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

    def test_binary_layout(self, tmp_path):
        tri = np.array([1.0, 0.25, 1.0])
        grm = Grm(n=2, lower_triangle=tri, m_effective=7)
        path = tmp_path / "a.grm"
        save_grm(grm, path)
        raw = path.read_bytes()
        assert raw[:4] == b"GRM1"
        n, m_eff = struct.unpack("<QQ", raw[4:20])
        assert (n, m_eff) == (2, 7)
        vals = np.frombuffer(raw[20:], dtype="<f8")
        assert np.array_equal(vals, tri)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.grm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
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
