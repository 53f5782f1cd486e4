"""Benchmark infrastructure: results directory and reporting helper.

Every bench regenerates one paper artifact (figure or survey claim — see
the experiment index in DESIGN.md), times it through pytest-benchmark,
writes the regenerated table/series to ``benchmarks/results/<exp>.txt``
and records headline numbers in ``benchmark.extra_info``. EXPERIMENTS.md
summarizes paper-vs-measured for every experiment.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, lines) -> None:
    """Persist a regenerated table so it survives pytest's capture."""
    text = "\n".join(lines) if not isinstance(lines, str) else lines
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
