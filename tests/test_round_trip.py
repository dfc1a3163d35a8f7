"""Save-then-load is the identity for every file format the package writes."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsre.genotype import GenotypeMatrix, Grm, load_genotypes, load_grm, save_genotypes, save_grm
from tsre.harness import load_phenotype, save_phenotype
from tsre.sumstats import VariantSummary, load_summaries, save_summaries

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
        variant_ids=draw(st.lists(_ids, min_size=m, max_size=m)),
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
def _summaries(draw):
    k = draw(st.integers(1, 6))
    ids = draw(_unique_ids(k))
    rows = draw(st.lists(st.tuples(*[_finite] * 5), min_size=k, max_size=k))
    return [VariantSummary(ident, *row) for ident, row in zip(ids, rows)]


@settings(max_examples=60, deadline=None)
@given(_summaries())
def test_summaries(summaries):
    back = _round_trip(save_summaries, load_summaries, summaries, "s.csv")
    assert [repr(s) for s in back] == [repr(s) for s in summaries]


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
