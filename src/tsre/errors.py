"""Exception taxonomy shared across the package.

Three failure families map onto distinct CLI exit codes: configuration
problems (bad options, bad scenario files), data problems (unparseable or
misaligned input files, shape mismatches), and numerical problems (degenerate
or insufficient data reaching an estimator).  open_text turns an undecodable
input file into a data problem.
"""

from contextlib import contextmanager

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
