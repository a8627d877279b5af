import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import lodserver  # noqa: E402  (found through the path entry above)

# Criterion outcomes collected by test_acceptance and echoed after the run.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="module")
def lod_server():
    """The local Linked Data server of `lodserver`, serving for one module."""
    server = lodserver.start()
    yield server
    server.shutdown()
    server.server_close()
