"""The suite's conftest lets a failing property test fail without ending the session."""

from pathlib import Path

pytest_plugins = ["pytester"]

INNER_TESTS = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_reports_as_a_failure(pytester):
    # In a fresh process: this one has already imported the patching module.
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(test_inner=INNER_TESTS)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
