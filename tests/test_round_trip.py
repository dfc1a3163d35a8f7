"""Save-then-load is the identity for every file format the package both
writes and reads (genotypes, phenotypes, GRMs), and for a scenario file
written in its documented `key = value` layout; every loader turns any other
file into typed, finite data or a DataError (a scenario file into a valid
config or a TsreError)."""

import csv
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tsre
from tsre import genotype
from tsre.errors import DataError, TsreError, write_csv
from tsre.genotype import GenotypeMatrix, Grm, load_genotypes, load_grm, save_genotypes, save_grm
from tsre.harness import load_phenotype, save_phenotype
from tsre.simulate import ScenarioConfig, load_scenario

from conftest import write_scenario

# Any text without surrogates (which UTF-8 cannot encode): commas, quotes,
# line breaks, spaces and the empty string included.
_ids = st.text(max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False)


def _unique_ids(size):
    return st.lists(_ids, min_size=size, max_size=size, unique=True)


def _round_trip(save, load, obj, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save(obj, path)
        return load(path)


@st.composite
def _genotypes(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    return GenotypeMatrix(
        dosages=draw(arrays(np.int8, (n, m), elements=st.integers(0, 2))),
        variant_ids=draw(_unique_ids(m)),
        individual_ids=draw(_unique_ids(n)),
    )


@settings(max_examples=60, deadline=None)
@given(_genotypes())
def test_genotypes(gm):
    back = _round_trip(save_genotypes, load_genotypes, gm, "g.csv")
    assert back.dosages.dtype == np.int8
    assert np.array_equal(back.dosages, gm.dosages)
    assert back.variant_ids == gm.variant_ids
    assert back.individual_ids == gm.individual_ids


@st.composite
def _phenotypes(draw):
    n = draw(st.integers(1, 8))
    return draw(_unique_ids(n)), draw(st.lists(_finite, min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(_phenotypes())
def test_phenotypes(pheno):
    ids, values = pheno
    back_ids, back_values = _round_trip(
        lambda p, path: save_phenotype(path, *p), load_phenotype, pheno, "p.csv"
    )
    assert back_ids == ids
    assert back_values.dtype == np.float64
    assert back_values.tobytes() == np.array(values, dtype=np.float64).tobytes()


@st.composite
def _grms(draw):
    n = draw(st.integers(1, 6))
    return Grm(
        n=n,
        lower_triangle=draw(arrays(np.float64, n * (n + 1) // 2, elements=_finite)),
        m_effective=draw(st.integers(1, 2**64 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(_grms())
def test_grm(grm):
    back = _round_trip(save_grm, load_grm, grm, "a.grm")
    assert (back.n, back.m_effective) == (grm.n, grm.m_effective)
    assert back.lower_triangle.dtype == np.float64
    assert back.lower_triangle.tobytes() == grm.lower_triangle.tobytes()


@st.composite
def _scenarios(draw):
    """Any valid scenario, every field drawn over a wide valid range."""
    counts = st.integers(0, 10**6)
    sigma = st.floats(min_value=0.0, allow_infinity=False)
    unit = st.floats(-1.0, 1.0)
    maf = sorted(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) for _ in "lh")
    m = [draw(counts) for _ in "abcd"]
    if sum(m) == 0:
        m[draw(st.integers(0, 3))] = 1
    values = dict(zip(("m_a", "m_b", "m_c", "m_d"), m))
    for f in fields(ScenarioConfig):
        if f.name.startswith("sigma"):
            values[f.name] = draw(sigma)
        elif f.name.startswith("mu") or f.name == "theta":
            values[f.name] = draw(_finite)
    return ScenarioConfig(
        n=draw(st.integers(2, 10**9)),
        rho_gc=draw(unit),
        rho_e=draw(unit),
        p_strong=draw(st.floats(0.0, 1.0)),
        strong_groups=draw(st.text("bc", max_size=3)),
        maf_low=maf[0],
        maf_high=maf[1],
        seed=draw(st.integers(0, 2**64)),
        **values,
    )


def _check_scenario(cfg):
    assert isinstance(cfg, ScenarioConfig)
    for f in fields(ScenarioConfig):
        assert type(getattr(cfg, f.name)).__name__ == f.type, f.name
    cfg.validate()


@settings(max_examples=60, deadline=None)
@given(_scenarios())
def test_scenario(cfg):
    back = _round_trip(write_scenario, load_scenario, cfg, "s.cfg")
    _check_scenario(back)
    assert back == cfg


# ---------------------------------------------------------------------------
# Loaders on arbitrary input
# ---------------------------------------------------------------------------

# CSV-shaped text: a well-formed file for one loader, then up to two of its
# values swapped for ones that are no dosage or no finite float, and up to
# two of its tokens replaced, removed or added from a list of header words,
# ids, values and the characters a CSV reader trips on.
_IDS = ["a", "b", "rs1", "", '"a,b"', '"x""y"', "\x00", "\u00e9"]
_FLOATS = ["0", "0.5", "-2.5e-3", "3", '"2"', " 1"]
_GOOD = {"genotypes": ["0", "1", "2"], "phenotype": _FLOATS}
_BAD = ["3", "-1", "1.0", "nan", "inf", "-inf", "1e400", "", "x", "\ufeff"]
_HEADERS = {
    "genotypes": ["id", "rs1", "rs2"],
    "phenotype": ["id", "value"],
}
_OTHERS = ["id", "value", *_IDS, *_BAD, ",", '"', "\n", "\r\n", "\r"]


@st.composite
def _csv_text(draw, name):
    header = _HEADERS[name]
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=n, max_size=n, unique=True))
    rows = [header] + [
        [ident] + [draw(st.sampled_from(_GOOD[name])) for _ in header[1:]] for ident in ids
    ]
    tokens = []
    for row in rows:
        for k, cell in enumerate(row):
            tokens += [cell, "," if k < len(row) - 1 else "\n"]
    values = [2 * (r * len(header) + c) for r in range(1, n + 1) for c in range(1, len(header))]
    for _ in range(draw(st.integers(0, 2))):
        tokens[draw(st.sampled_from(values))] = draw(st.sampled_from(_BAD))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["replace", "remove", "add"]))
        if edit == "remove":
            del tokens[k]
        else:
            tokens[k:k + (edit == "replace")] = [draw(st.sampled_from(_OTHERS))]
    return "".join(tokens).encode("utf-8")


@st.composite
def _grm_bytes(draw):
    """The GRM magic, a header of any n and m_effective, then doubles (NaN
    and inf among them) mostly as many as the triangle holds, or raw bytes."""
    n = draw(st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)))
    m = draw(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)))
    size = n * (n + 1) // 2 if n <= 4 else 0
    count = max(draw(st.sampled_from([size, size, size - 1, size + 1])), 0)
    doubles = draw(st.lists(st.floats(), min_size=count, max_size=count))
    tail = draw(st.one_of(st.just(struct.pack(f"<{count}d", *doubles)), st.binary(max_size=96)))
    return b"GRM1" + struct.pack("<QQ", n, m) + tail


# Scenario-shaped text: a file of distinct real keys with values of their type
# (m_b = 3 first, so most such files are valid), then up to two lines added
# whose keys, separators and values no parser or no validation accepts.
_GOOD_VALUES = {"int": ["0", "2", "3", "50"], "float": ["0", "0.25", "-0.5", "1", "0.3e0"],
                "str": ["", "b", "bc"]}
_KEYS = [f.name for f in fields(ScenarioConfig)] + ["bogus", "", "#", " m_b"]
_VALUES = ["-1", "2.5", "-0.0", "1e400", "nan", "inf", "1_0", "0x1", "bd", "", "\u0663",
           "7 = 8", '"1"']


@st.composite
def _scenario_text(draw):
    types = {f.name: f.type for f in fields(ScenarioConfig)}
    keys = draw(st.lists(st.sampled_from(sorted(types)), max_size=6, unique=True))
    lines = ["m_b = 3"] + [
        f"{key} = {draw(st.sampled_from(_GOOD_VALUES[types[key]]))}"
        for key in keys if key != "m_b"
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(
            draw(st.integers(0, len(lines))),
            draw(st.sampled_from(_KEYS)) + draw(st.sampled_from(["=", " = ", " ", "=="]))
            + draw(st.sampled_from(_VALUES)),
        )
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines).encode("utf-8")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_scenario_loader_returns_valid_config_or_tsre_error(data, tmp_path):
    path = tmp_path / "input.cfg"
    path.write_bytes(data.draw(st.one_of(st.binary(max_size=200), _scenario_text())))
    try:
        cfg = load_scenario(path)
    except TsreError:
        return
    _check_scenario(cfg)


def _check_genotypes(gm):
    assert gm.dosages.dtype == np.int8
    assert gm.dosages.shape == (len(gm.individual_ids), len(gm.variant_ids))
    assert np.isin(gm.dosages, (0, 1, 2)).all()


def _check_phenotype(pheno):
    ids, values = pheno
    assert values.dtype == np.float64
    assert values.shape == (len(ids),)
    assert np.isfinite(values).all()


def _check_grm(grm):
    assert grm.lower_triangle.dtype == np.float64
    assert grm.lower_triangle.shape == (grm.n * (grm.n + 1) // 2,)
    assert np.isfinite(grm.lower_triangle).all()
    assert grm.m_effective >= 1


_LOADERS = {
    "genotypes": (load_genotypes, _check_genotypes, _csv_text("genotypes")),
    "phenotype": (load_phenotype, _check_phenotype, _csv_text("phenotype")),
    "grm": (load_grm, _check_grm, _grm_bytes()),
}


@pytest.mark.parametrize("name", list(_LOADERS))
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_loader_returns_finite_typed_data_or_data_error(name, data, tmp_path):
    load, check, shaped = _LOADERS[name]
    path = tmp_path / "input"
    path.write_bytes(data.draw(st.one_of(st.binary(max_size=200), shaped)))
    try:
        loaded = load(path)
    except DataError:
        return
    check(loaded)


# ---------------------------------------------------------------------------
# The two genotype routes: bytes for plain files, the csv module for the rest
# ---------------------------------------------------------------------------


def _csv_route(path):
    """load_genotypes with the byte route turned off."""
    with patch.object(genotype, "_load_plain", lambda path: None):
        return load_genotypes(path)


def _assert_same_genotypes(got, want):
    assert got.dosages.dtype == want.dosages.dtype == np.int8
    assert got.dosages.flags.c_contiguous and got.dosages.flags.writeable
    assert np.array_equal(got.dosages, want.dosages)
    assert got.variant_ids == want.variant_ids
    assert got.individual_ids == want.individual_ids


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_byte_route_is_the_csv_route_or_declines(data, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(data.draw(st.one_of(st.binary(max_size=200), _csv_text("genotypes"))))
    plain = genotype._load_plain(path)
    try:
        want = _csv_route(path)
    except DataError:
        assert plain is None
        return
    if plain is not None:
        _assert_same_genotypes(plain, want)


_LONG = "b" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "text, outcome",
    [
        (b'id,v1\n"a,b",1\n"c""d",2\n', ["a,b", 'c"d']),
        (b"id,v1\r\na,1\r\nb,2\r\n", ["a", "b"]),
        (b"id,v1\n\na,1\n\nb,2\n\n", ["a", "b"]),
        (b"\xef\xbb\xbfid,v1\na,1\n", "genotype header must be 'id' and at least one variant id"),
        (b"id,v1\na,1\n\xff,2\n", "not UTF-8 text"),
        (b"id,v1,v2\na,1,2\nb,1\n", "line 3: 2 fields, expected 3"),
        (b"id,v1,v2\na,1,2\nb,1;2\n", "line 3: 2 fields, expected 3"),
        (b"id,v1,v2\na,1,2\nb,1, 2\n", r"line 3, variant 'v2': dosage must be 0, 1, or 2 \(got ' 2'\)"),
        (b"id,v1\na,1\na,2\n", "line 3: duplicate id 'a'"),
        (b"id,v1,v1\na,1,2\n", "genotype header repeats variant id 'v1'"),
        (b"id,v1\n", "no data rows"),
        (b"", "empty file"),
        (f"id,v1\na,1\n{_LONG},2\n".encode(), "line 3: field larger than field limit"),
        (f"id,{_LONG}\na,1\n".encode(), "line 1: field larger than field limit"),
    ],
    ids=["quoted_ids", "crlf", "blank_lines", "bom", "non_utf8_id", "ragged_row", "semicolon_row",
         "bad_cell", "repeated_id", "repeated_variant_id", "header_only", "empty", "long_id",
         "long_variant_id"],
)
def test_files_that_are_not_plain_take_the_csv_route(tmp_path, text, outcome):
    path = tmp_path / "g.csv"
    path.write_bytes(text)
    assert genotype._load_plain(path) is None
    if isinstance(outcome, list):
        assert load_genotypes(path).individual_ids == outcome
    else:
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {outcome}"):
            load_genotypes(path)


_AT_LIMIT = "c" * csv.field_size_limit()


@pytest.mark.parametrize(
    "text, ids",
    [
        ("id,v1,v2\na,0,1\né,2,1", ["a", "é"]),
        (f"id,v1,v2\na,0,1\n{_AT_LIMIT},2,1\n", ["a", _AT_LIMIT]),
    ],
    ids=["no_final_newline", "id_at_field_limit"],
)
def test_plain_files_take_the_byte_route(tmp_path, text, ids):
    path = tmp_path / "g.csv"
    path.write_bytes(text.encode())
    plain = genotype._load_plain(path)
    assert plain is not None
    _assert_same_genotypes(plain, _csv_route(path))
    assert plain.individual_ids == ids
    assert plain.dosages.tolist() == [[0, 1], [2, 1]]


@settings(max_examples=100, deadline=None)
@given(_genotypes())
def test_save_genotypes_writes_the_bytes_of_write_csv(gm):
    # plain ids take the byte writer, the rest write_csv; both give one file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        save_genotypes(gm, path)
        with open(Path(tmp) / "want.csv", "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, ["id", *gm.variant_ids],
                      ([i, *row] for i, row in zip(gm.individual_ids, gm.dosages.tolist())))
        assert path.read_bytes() == (Path(tmp) / "want.csv").read_bytes()


# Every text writer and reader of the package, in a fresh interpreter in
# which a text file opened without an explicit encoding is an error.
_TEXT_IO = """
import os, sys, tempfile
sys.path.insert(0, {src!r})
from tsre.cli import main

with tempfile.TemporaryDirectory() as tmp:
    cfg = os.path.join(tmp, "scenario.txt")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("n = 60\\nm_b = 10\\nm_c = 4\\nsigma_gb = 0.3\\nsigma_gc_x = 0.1\\n"
                 "sigma_gc_y = 0.1\\nmu_gc_x = 0.2\\n")
    data = os.path.join(tmp, "data")
    files = [os.path.join(data, f) for f in ("genotypes.csv", "exposure.csv", "outcome.csv")]
    for argv in (
        ["simulate", "--config", cfg, "--out", data],
        ["theory", "--config", cfg],
        ["estimate", "--genotypes", files[0], "--exposure", files[1], "--outcome", files[2],
         "--method", "wm", "--select", "top:5"],
        ["replicate", "--target", "custom", "--config", cfg, "--reps", "2",
         "--out", os.path.join(tmp, "out")],
    ):
        assert main(argv) == 0, argv
"""


def test_text_files_name_their_encoding():
    src = str(Path(tsre.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _TEXT_IO.format(src=src)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
