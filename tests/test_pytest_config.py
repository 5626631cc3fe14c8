"""The repository's pytest configuration, applied to a run of its own."""

import pathlib

pytest_plugins = ["pytester"]

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_is_reported(pytester):
    # under the repository's warning filters, Hypothesis's failure report
    # must not raise inside pytest: the failure is reported, and the test
    # after it still runs
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    path = pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 10

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", str(path))
    result.assert_outcomes(failed=1, passed=1)
