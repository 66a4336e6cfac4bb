"""Pytest hooks shared by every test module."""

import ctypes
from pathlib import Path

import numpy as np


def openblas_corename() -> str:
    """The kernel that numpy's bundled OpenBLAS chose for this CPU (for
    example ``SkylakeX`` or ``Haswell``), or ``unknown`` when that library or
    its ``scipy_openblas_get_corename64_`` symbol is not there.

    The pinned hashes and the bitwise row-invariance tests hold on the
    kernel they were taken on, so a failure there starts with this name."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        name = corename()
        return name.decode("ascii", "replace") if name else "unknown"
    return "unknown"


def pytest_report_header(config):
    return f"openblas kernel: {openblas_corename()}"
