"""Exception taxonomy shared across the package.

Three failure families map onto distinct CLI exit codes: configuration
problems (bad options, bad scenario files), data problems (unparseable or
misaligned input files, shape mismatches), and numerical problems (degenerate
or insufficient data reaching an estimator).  open_text turns an undecodable
input file into a data problem; read_csv and finite_float hold the rules
every CSV input follows, check_traits and centre_traits the rules every
exposure and outcome vector follows on its way into an estimator.
"""

import csv
import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

__all__ = ["TsreError", "ConfigError", "DataError", "EstimationError"]


class TsreError(Exception):
    """Base class for all package errors."""


class ConfigError(TsreError):
    """Invalid configuration: unknown keys, out-of-range values, bad options."""


class DataError(TsreError):
    """Malformed or inconsistent input data: parse failures, ID misalignment,
    dimension mismatches, out-of-range dosages."""


class EstimationError(TsreError):
    """Numerical failure inside an estimator: no signal, weak genetic signal,
    singular designs, degenerate weights, or too few samples/instruments."""


@contextmanager
def open_text(path, **kw):
    """Open an input file as UTF-8 text; undecodable bytes raise a DataError
    that names the file."""
    with open(path, encoding="utf-8", **kw) as fh:
        try:
            yield fh
        except UnicodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def read_csv(path):
    """Stream a CSV input: the header, then (line number, fields) per non-blank row.

    An empty file, a file without data rows, a row the csv module cannot
    parse, a row not as wide as the header, and a first field that an earlier
    row used are each a DataError naming the file and, for a row, the line.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            yield header
            seen: set[str] = set()
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: line {lineno}: {len(row)} fields, expected {len(header)}"
                    )
                if row[0] in seen:
                    raise DataError(f"{path}: line {lineno}: duplicate id {row[0]!r}")
                seen.add(row[0])
                yield lineno, row
            if not seen:
                raise DataError(f"{path}: no data rows")
        except csv.Error as exc:  # e.g. a field over the module's size limit
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def finite_float(text, path, lineno) -> float:
    """Parse one numeric field; unparseable and non-finite values are a
    DataError naming the file and the line."""
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: cannot parse value {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: line {lineno}: value {text!r} is not finite")
    return value


def check_traits(n: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """The exposure and outcome as float64 vectors of length n.

    Any other shape, a NaN and an inf are each a DataError.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.shape != (n,) or y.shape != (n,):
        raise DataError(
            f"phenotype length mismatch: expected {n} values, exposure has shape "
            f"{x.shape}, outcome has shape {y.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("exposure and outcome must be finite (found NaN or inf)")
    return x, y


def centre_traits(n: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """The checked exposure and outcome minus their means.

    A trait that holds one value throughout is an EstimationError: its
    centred values would be rounding residue (about 1e-17 for 0.1 repeated),
    which every estimator would read as signal.  So is a trait whose
    variance lies outside [2^-200, 2^200]: the pair sums hold its fourth
    powers, which would underflow or overflow on the way to theta_hat and se.
    """
    x, y = check_traits(n, x, y)
    centred = []
    for name, v in (("exposure", x), ("outcome", y)):
        if v.min() == v.max():
            raise EstimationError(f"no signal: the {name} does not vary")
        # an overflow leaves var inf or NaN, which the range check rejects
        with np.errstate(over="ignore", invalid="ignore"):
            c = v - v.mean()
            var = float(c @ c) / n
        if not 2.0**-200 <= var <= 2.0**200:
            raise EstimationError(
                f"the {name} has variance {var:.3e}, outside [2^-200, 2^200]; rescale it"
            )
        centred.append(c)
    return centred[0], centred[1]


def write_csv(fh, header, rows) -> None:
    """Write a header row, then the rows, as CSV with `\\n` line ends.

    A field is quoted only when it holds a comma, a quote or a line break.
    Python and NumPy floats are written as repr(float(v)) writes them.
    """
    # csv quotes only its terminator's characters: end rows in \r\n to quote a bare \r
    rows_lf = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
    writer = csv.writer(rows_lf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
