import shutil
import sys
from pathlib import Path

import pytest

from bindery.config import Config

FIXTURES = Path(__file__).parent / "fixtures"
BOOKS = FIXTURES / "books"
ORACLES = Path(__file__).parent / "oracles"

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def config():
    return Config()


@pytest.fixture
def fixture_books():
    return sorted(BOOKS.glob("pg*.txt"))


@pytest.fixture
def raw_dir(tmp_path):
    """Three fixture books in a source directory of their own."""
    src = tmp_path / "raw"
    src.mkdir()
    for name in ("pg730.txt", "pg1001.txt", "pg1002.txt"):
        shutil.copy(BOOKS / name, src / name)
    return src


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "bindery.conf"
    path.write_text(
        "# smoke-scale overrides\n"
        "embed_min_count = 2\n"
        "embed_dim = 32\n"
        "embed_epochs = 5\n",
        encoding="utf-8")
    return path


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end test")


_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion" in report.nodeid:
        if report.when == "call" or report.failed:
            name = report.nodeid.split("::")[-1]
            _ACCEPTANCE_RESULTS.setdefault(name, report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if _ACCEPTANCE_RESULTS[name] else "FAIL"
        label = name.replace("test_criterion_", "criterion ")
        terminalreporter.write_line(f"{verdict}  {label}")
