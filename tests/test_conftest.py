"""The suite's own pytest hooks."""

from types import SimpleNamespace

from conftest import pytest_runtest_logreport


def test_only_the_acceptance_file_prints_acceptance_lines(capsys):
    for path, name in [("tests/test_acceptance.py", "test_c01_initial_measurement_law"),
                       ("tests/test_imports.py", "test_read[tests/test_acceptance.py]")]:
        pytest_runtest_logreport(SimpleNamespace(
            when="call", nodeid=f"{path}::{name}", location=(path, 1, name), passed=True, failed=False))
    assert capsys.readouterr().err == "[acceptance] test_c01_initial_measurement_law: PASS\n"
