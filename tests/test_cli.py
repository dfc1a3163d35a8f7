"""Command line interface: round trips, output formats, and exit codes."""

import math
import re
import struct

import numpy as np
import pytest

from tsre.cli import main
from tsre.genotype import load_grm

METHODS = ("tsre", "ivw", "ivw_fe", "egger", "sm", "wm", "tsls")

SCENARIO = """
n = 120
m_b = 25
m_c = 8
sigma_gb = 0.2
mu_gc_x = 0.1
sigma_gc_x = 0.1
sigma_gc_y = 0.1
rho_gc = 0.5
sigma2_ex = 1.0
sigma2_ey = 1.0
theta = 0.3
seed = 21
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return path


@pytest.fixture
def dataset(tmp_path, scenario_file):
    out = tmp_path / "data"
    rc = main(["simulate", "--config", str(scenario_file), "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_all_four_files(self, dataset, capsys):
        for name in ("genotypes.csv", "exposure.csv", "outcome.csv", "effects.csv"):
            assert (dataset / name).exists()

    def test_effects_file_layout(self, dataset):
        lines = (dataset / "effects.csv").read_text().splitlines()
        assert lines[0] == "variant_id,group,beta,alpha"
        assert len(lines) == 1 + 33
        groups = [line.split(",")[1] for line in lines[1:]]
        assert groups == ["b"] * 25 + ["c"] * 8
        effects = [[float(v) for v in line.split(",")[2:]] for line in lines[1:]]
        assert np.isfinite(effects).all()

    def test_deterministic_given_seed(self, tmp_path, scenario_file):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", str(scenario_file), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(scenario_file), "--out", str(b)]) == 0
        for name in ("genotypes.csv", "exposure.csv", "outcome.csv", "effects.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_config_exits_three(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 120\nm_b = 10\nrho_gc = 7\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: rho_gc must lie in [-1, 1]\n"

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "seed.cfg"
        bad.write_text(SCENARIO.replace("seed = 21", "seed = -3"))
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err


class TestGrmCommand:
    def test_builds_loadable_binary(self, dataset, tmp_path, capsys):
        out = tmp_path / "a.grm"
        rc = main(["grm", "--genotypes", str(dataset / "genotypes.csv"), "--out", str(out)])
        assert rc == 0
        assert "n=120" in capsys.readouterr().out
        grm = load_grm(out)
        assert grm.n == 120
        np.testing.assert_allclose(grm.diagonal().mean(), 1.0, rtol=1e-12)

    def test_repeated_variant_id_exits_three(self, dataset, tmp_path, capsys):
        dup = _repeat_header_id(dataset, tmp_path)
        out = tmp_path / "a.grm"
        assert main(["grm", "--genotypes", str(dup), "--out", str(out)]) == 3
        assert f"{dup}: genotype header repeats variant id 'v00003'" in capsys.readouterr().err
        assert not out.exists()


def _repeat_header_id(dataset, tmp_path):
    """A copy of the dataset genotypes whose header names v00003 twice."""
    lines = (dataset / "genotypes.csv").read_text().splitlines()
    header = lines[0].split(",")
    header[4] = header[3]
    dup = tmp_path / "dup_header.csv"
    dup.write_text("\n".join([",".join(header), *lines[1:]]) + "\n")
    return dup


class TestEstimateCommand:
    def _argv(self, dataset, method, *extra):
        return [
            "estimate",
            "--method",
            method,
            "--genotypes",
            str(dataset / "genotypes.csv"),
            "--exposure",
            str(dataset / "exposure.csv"),
            "--outcome",
            str(dataset / "outcome.csv"),
            *extra,
        ]

    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_emits_csv(self, dataset, capsys, method):
        rc = main(self._argv(dataset, method))
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "method,theta_hat,se,n,m_used"
        cells = out[1].split(",")
        assert cells[0] == method
        assert np.isfinite(float(cells[1]))
        assert int(cells[3]) == 120

    def test_selection_flag(self, dataset, capsys):
        rc = main(self._argv(dataset, "ivw", "--select", "top:5"))
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "5"

    # the warning is what this test reads, so the "error" filter of the
    # test configuration must let it through to the CLI's printer
    @pytest.mark.filterwarnings("default:requested top 50:UserWarning")
    def test_oversized_top_k_warns_in_one_line(self, dataset, capsys):
        # 33 variants: 25 exposure-only and 8 pleiotropic
        assert main(self._argv(dataset, "ivw", "--select", "all")) == 0
        plain = capsys.readouterr().out
        assert main(self._argv(dataset, "ivw", "--select", "top:50")) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert captured.err == (
            "warning: requested top 50 variants but only 33 are available; using all\n"
        )

    def test_precomputed_grm_flag(self, dataset, tmp_path, capsys):
        grm_path = tmp_path / "a.grm"
        main(["grm", "--genotypes", str(dataset / "genotypes.csv"), "--out", str(grm_path)])
        capsys.readouterr()
        rc = main(self._argv(dataset, "tsre", "--grm", str(grm_path)))
        with_grm = capsys.readouterr().out
        rc2 = main(self._argv(dataset, "tsre"))
        plain = capsys.readouterr().out
        assert rc == rc2 == 0
        assert with_grm == plain

    def test_grm_of_another_sample_exits_three(self, dataset, tmp_path, capsys):
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(SCENARIO.replace("seed = 21", "seed = 22"))
        other = tmp_path / "other"
        assert main(["simulate", "--config", str(other_cfg), "--out", str(other)]) == 0
        grm_path = tmp_path / "other.grm"
        main(["grm", "--genotypes", str(other / "genotypes.csv"), "--out", str(grm_path)])
        assert load_grm(grm_path).n == 120
        capsys.readouterr()
        assert main(self._argv(dataset, "tsre", "--grm", str(grm_path))) == 3
        err = capsys.readouterr().err
        assert str(grm_path) in err and "diagonal" in err

    @pytest.mark.parametrize("cutoff", [None, "0.5"], ids=["fit", "filter"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_grm_entry_exits_three(self, dataset, tmp_path, capsys, bad, cutoff):
        grm_path = tmp_path / "a.grm"
        main(["grm", "--genotypes", str(dataset / "genotypes.csv"), "--out", str(grm_path)])
        raw = bytearray(grm_path.read_bytes())
        # packed slot 4 is the off-diagonal entry (2, 1), after the 20-byte header
        raw[20 + 8 * 4 : 20 + 8 * 5] = struct.pack("<d", bad)
        grm_path.write_bytes(raw)
        capsys.readouterr()
        extra = ["--grm", str(grm_path)] + (["--grm-cutoff", cutoff] if cutoff else [])
        assert main(self._argv(dataset, "tsre", *extra)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {grm_path}: 1 GRM entries are NaN or infinite\n"

    def test_bad_selection_exits_two(self, dataset, capsys):
        assert main(self._argv(dataset, "ivw", "--select", "bogus")) == 2

    def test_missing_file_exits_three(self, dataset, tmp_path, capsys):
        argv = self._argv(dataset, "ivw")
        argv[argv.index("--exposure") + 1] = str(tmp_path / "missing.csv")
        assert main(argv) == 3

    def test_constant_exposure_exits_four(self, dataset, tmp_path, capsys):
        # 0.1 has no exact mean, so centring it leaves a residue of ~1e-17
        ids = [
            line.split(",")[0]
            for line in (dataset / "exposure.csv").read_text().splitlines()[1:]
        ]
        for trait, value in (("exposure", "1.0"), ("exposure", "0.1"), ("outcome", "0.1")):
            flat = tmp_path / f"flat_{trait}_{value}.csv"
            flat.write_text("id,value\n" + "".join(f"{i},{value}\n" for i in ids))
            for method in METHODS:
                argv = self._argv(dataset, method)
                argv[argv.index(f"--{trait}") + 1] = str(flat)
                assert main(argv) == 4, (trait, value, method)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: no signal: the {trait} does not vary\n"

    @pytest.mark.parametrize("trait", ["exposure", "outcome"])
    def test_trait_scale_exits_four_or_scales_exactly(self, dataset, tmp_path, capsys, trait):
        # Scaling a trait by 2^k scales every theta_hat and se by 2^-k
        # (exposure) or 2^k (outcome) without rounding, as long as the
        # trait's variance stays in [2^-200, 2^200]; outside it every method
        # exits 4.  An exception escaping main fails the test.
        lines = (dataset / f"{trait}.csv").read_text().splitlines()
        base = {}
        for method in METHODS:
            assert main(self._argv(dataset, method)) == 0
            cells = capsys.readouterr().out.splitlines()[1].split(",")
            base[method] = (float(cells[1]), float(cells[2]))
        sign = -1 if trait == "exposure" else 1
        refused = re.compile(
            rf"error: the {trait} has variance \S+, outside \[2\^-200, 2\^200\]; rescale it\n"
        )
        for k in (-520, -400, -120, 0, 80, 120, 400, 1000):
            scaled = tmp_path / f"{trait}_{k}.csv"
            rows = (line.split(",") for line in lines[1:])
            scaled.write_text(
                lines[0] + "\n" + "".join(f"{i},{float(v) * 2.0**k!r}\n" for i, v in rows)
            )
            for method in METHODS:
                argv = self._argv(dataset, method)
                argv[argv.index(f"--{trait}") + 1] = str(scaled)
                rc = main(argv)
                captured = capsys.readouterr()
                if abs(k) >= 120:
                    assert rc == 4, (k, method)
                    assert captured.out == ""
                    assert refused.fullmatch(captured.err), (k, method, captured.err)
                else:
                    assert rc == 0, (k, method)
                    cells = captured.out.splitlines()[1].split(",")
                    theta, se = base[method]
                    assert float(cells[1]) == math.ldexp(theta, sign * k), (k, method)
                    assert float(cells[2]) == math.ldexp(se, sign * k), (k, method)

    def test_empty_selection_exits_four(self, dataset, capsys):
        for method in METHODS:
            assert main(self._argv(dataset, method, "--select", "pval:1e-300")) == 4, method
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: selection 'pval:1e-300' keeps no variants\n"

    def test_nan_exposure_exits_three(self, dataset, tmp_path, capsys):
        lines = (dataset / "exposure.csv").read_text().splitlines()
        ident = lines[1].split(",")[0]
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join([lines[0], f"{ident},nan", *lines[2:]]) + "\n")
        argv = self._argv(dataset, "tsre")
        argv[argv.index("--exposure") + 1] = str(bad)
        assert main(argv) == 3
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_genotype_id_exits_three(self, dataset, tmp_path, capsys):
        lines = (dataset / "genotypes.csv").read_text().splitlines()
        first = lines[1].split(",")[0]
        lines[2] = ",".join([first, *lines[2].split(",")[1:]])
        dup = tmp_path / "dup.csv"
        dup.write_text("\n".join(lines) + "\n")
        argv = self._argv(dataset, "ivw")
        argv[argv.index("--genotypes") + 1] = str(dup)
        assert main(argv) == 3
        assert f"line 3: duplicate id '{first}'" in capsys.readouterr().err

    def test_repeated_variant_id_exits_three(self, dataset, tmp_path, capsys):
        dup = _repeat_header_id(dataset, tmp_path)
        argv = self._argv(dataset, "tsre")
        argv[argv.index("--genotypes") + 1] = str(dup)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{dup}: genotype header repeats variant id 'v00003'" in captured.err

    def test_non_finite_cutoff_exits_two(self, dataset, tmp_path, capsys):
        argv = self._argv(dataset, "tsre", "--grm-cutoff", "nan")
        assert main(argv) == 2
        assert "cutoff" in capsys.readouterr().err
        # the cutoff is checked before any file is read
        argv[argv.index("--genotypes") + 1] = str(tmp_path / "missing.csv")
        assert main(argv) == 2
        assert "cutoff" in capsys.readouterr().err

    def test_unknown_method_exits_two(self, dataset):
        with pytest.raises(SystemExit) as err:
            main(self._argv(dataset, "bogus"))
        assert err.value.code == 2


@pytest.mark.parametrize(
    "case",
    [
        "genotypes_dir",
        "config_dir",
        "non_utf8_phenotype",
        "non_utf8_config",
        "non_utf8_genotypes",
        "oversized_field_genotypes",
    ],
)
def test_unreadable_input_exits_three(dataset, tmp_path, capsys, case):
    bad = tmp_path / "folder"
    if case.endswith("_dir"):
        bad.mkdir()
    else:
        bad = tmp_path / "bad.csv"
        if case.startswith("oversized"):  # beyond the csv module's field size limit
            bad.write_bytes(b"id,v1\n" + b"i" * 200_000 + b",0\n")
        else:
            bad.write_bytes(b"\xff\xfeid,value\n")
    if "config" in case:
        argv = ["theory", "--config", str(bad)]
    else:
        exposure = bad if case == "non_utf8_phenotype" else dataset / "exposure.csv"
        geno = bad if "genotypes" in case else dataset / "genotypes.csv"
        argv = ["estimate", "--method", "ivw", "--genotypes", str(geno),
                "--exposure", str(exposure), "--outcome", str(dataset / "outcome.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(bad) in err[0]


class TestReplicateCommand:
    def test_custom_round_trip(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "rep"
        rc = main(
            [
                "replicate",
                "--target",
                "custom",
                "--config",
                str(scenario_file),
                "--reps",
                "3",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "custom_results.csv") in printed
        lines = (out / "custom_results.csv").read_text().splitlines()
        assert lines[0].startswith("target,row_id,")
        assert len(lines) == 6  # header + five default methods

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        rc = main(["replicate", "--target", "table2", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--reps", "--threads"])
    def test_rejected_run_leaves_no_directory(self, tmp_path, capsys, flag):
        out = tmp_path / "rep"
        rc = main(["replicate", "--target", "table2", flag, "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_custom_requires_config(self, tmp_path, capsys):
        rc = main(["replicate", "--target", "custom", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_builtin_rejects_config(self, tmp_path, scenario_file, capsys):
        rc = main(
            [
                "replicate",
                "--target",
                "table2",
                "--config",
                str(scenario_file),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    def test_unknown_target_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["replicate", "--target", "table9", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestTheoryCommand:
    def test_report_values(self, scenario_file, capsys):
        rc = main(["theory", "--config", str(scenario_file)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",") for line in lines[1:])
        assert set(table) == {
            "bias_tsre",
            "bias_ivw",
            "bias_egger",
            "tau2",
            "var_theta",
            "se_theta",
            "heritability",
        }
        # hand check: num = 8 * rho*sx*sy = 8*0.005, den = 25*0.04 + 8*0.02
        assert float(table["bias_tsre"]) == pytest.approx(
            8 * 0.5 * 0.1 * 0.1 / (25 * 0.04 + 8 * (0.01 + 0.01))
        )
        assert float(table["bias_ivw"]) == float(table["bias_tsre"])
        assert float(table["se_theta"]) == pytest.approx(
            np.sqrt(float(table["var_theta"]))
        )
        assert 0 < float(table["heritability"]) < 1
