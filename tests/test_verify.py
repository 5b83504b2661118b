"""SuiteResult's bookkeeping and run_suite's sample floor, on checks
made by hand rather than by a suite."""

import math

import pytest

from sliceregular.verify import SuiteResult, run_suite


def test_a_failing_check_or_within_fails_the_suite():
    for fail in (lambda res: res.check(False, "no"), lambda res: res.within(1.0, 0.5, "no")):
        res = SuiteResult("s")
        res.check(True, "yes")
        res.within(0.25, 0.5, "yes")
        assert res.passed
        fail(res)
        assert not res.passed and res.checks == 3 and len(res.failures) == 1
        assert res.summary().startswith("FAIL s: 3 checks")


def test_within_passes_at_its_tolerance_and_fails_one_ulp_above():
    res = SuiteResult("s")
    res.within(1e-9, 1e-9, "at")
    assert res.passed and res.max_residual == 1e-9
    above = math.nextafter(1e-9, math.inf)
    res.within(above, 1e-9, "above")
    assert not res.passed and res.max_residual == above
    assert res.failures == [f"above: residual {above:.3e} > tol 1.000e-09"]


def test_check_records_no_residual():
    res = SuiteResult("s")
    res.check(False, "no")
    assert res.max_residual == 0.0 and res.failures == ["no"]


def test_failures_keep_twenty_labels_and_the_summary_lists_five():
    res = SuiteResult("s")
    for n in range(30):
        res.within(n + 1.0, 0.5, f"sample {n}")
    assert res.checks == 30 and res.max_residual == 30.0
    assert res.failures == [f"sample {n}: residual {n + 1.0:.3e} > tol 5.000e-01"
                            for n in range(20)]
    listed = res.summary().split("; first failures: ")[1].split("; ")
    assert listed == res.failures[:5]


def test_run_suite_rejects_fewer_samples_than_the_suite_takes():
    with pytest.raises(ValueError, match="at least 9"):
        run_suite("nullstellensatz", samples=8)
    with pytest.raises(ValueError, match="at least 1"):
        run_suite("jjjj", samples=0)
    assert run_suite("nullstellensatz", samples=9).passed
