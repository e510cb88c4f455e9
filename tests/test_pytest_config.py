"""The repository's pytest configuration: a failing Hypothesis test fails
alone, and the rest of the run goes on."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_given_test_does_not_abort_the_run(pytester, capsys):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_plant="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """)
    # a subprocess, so that libcst is imported afresh and its warning fires
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_plant.py")
    capsys.readouterr()     # the inner run's report is not this run's
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
