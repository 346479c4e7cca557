"""Shared fixtures for the benchmark suite.

Every per-figure bench (a) regenerates the corresponding paper artifact at
``bench`` scale, (b) writes the rendered table/series to
``results/<name>.txt`` next to this directory, and (c) asserts the paper's
qualitative headline.  ``pytest benchmarks/ --benchmark-only`` therefore
doubles as the repository's reproduction run.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return "bench"


def write_result(results_dir: pathlib.Path, name: str, rendered: str) -> None:
    (results_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
