"""Shared pytest configuration for the repro test suite."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.parallel import shutdown_pools

GRIDS_GOLDEN = Path(__file__).parent / "golden" / "grids.json"


@pytest.fixture(autouse=True, scope="session")
def _shutdown_worker_pools():
    """Tear down persistent warm-worker pools when the session ends.

    Pools outlive individual sweeps by design; an orderly shutdown lets
    worker processes flush coverage data and keeps the atexit path from
    racing interpreter teardown under pytest-cov.
    """
    yield
    shutdown_pools()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden snapshot files under tests/golden/ "
        "from the current run instead of asserting against them",
    )


@pytest.fixture
def grid_pin(request):
    """Pin a scenario grid's JSON report to its SHA-256 in grids.json.

    Call the returned function with the pin's name and the report text,
    ``emit_json(result.to_payload())``.  ``--update-golden`` records the
    digest instead of comparing against it.
    """

    def check(name: str, text: str) -> None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        golden = (
            json.loads(GRIDS_GOLDEN.read_text()) if GRIDS_GOLDEN.exists() else {}
        )
        if request.config.getoption("--update-golden"):
            golden[name] = digest
            GRIDS_GOLDEN.write_text(
                json.dumps(golden, indent=2, sort_keys=True) + "\n"
            )
            return
        assert golden.get(name) == digest, (
            f"the {name!r} grid payload drifted from tests/golden/grids.json "
            "(rerun with --update-golden if intentional)"
        )

    return check
