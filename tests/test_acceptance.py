"""Acceptance tests for the headline quantitative results.

Every headline claim is coded once, as a check in ``verify.CHECKS``,
with its tolerance and every folded sub-bound.  One test per check runs
it, prints a single PASS/FAIL line (visible under ``pytest -v``) and
asserts ``measured <= tolerance``, so a full run doubles as a
human-readable scorecard.
"""

from __future__ import annotations

import time

import pytest

from vacuum1d import energy, run_checks, spectrum, summation, verify
from vacuum1d.summation import SeriesValue
from vacuum1d.verify import CHECKS


def scorecard(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


@pytest.mark.parametrize("name,tol,check", CHECKS, ids=[name for name, _, _ in CHECKS])
def test_registry_check(capsys, name, tol, check):
    measured, detail = check()
    ok = measured <= tol
    scorecard(capsys, ok, name, f"{detail} (measured {measured:.2e}, tol {tol:g})")
    assert ok, detail


def test_counting_check_reports_unexpected_errors(monkeypatch):
    # Only AtEigenvalue means "draw another omega"; any other error must
    # end the check as a failed row instead of being retried forever.
    class Retried(BaseException):
        pass

    calls = []

    def stub(geometry, omega, tol_eigen=None):
        calls.append(omega)
        if len(calls) > 1:
            raise Retried("counting_decomposition was retried after an error")
        raise RuntimeError("boom")

    monkeypatch.setattr(spectrum, "counting_decomposition", stub)
    monkeypatch.setattr(
        verify, "CHECKS", tuple(c for c in CHECKS if c[0] == "counting_decomposition")
    )
    (result,) = run_checks()
    assert not result.passed
    assert "RuntimeError" in result.detail
    assert len(calls) == 1


def passes(name: str) -> bool:
    ((tol, check),) = [(tol, check) for n, tol, check in CHECKS if n == name]
    return check()[0] <= tol


def test_poisson_identity_fails_when_the_image_sum_leaves_its_bound(monkeypatch):
    lattice_sum = summation.lattice_sum

    def shifted(*args, **kwargs):
        got = lattice_sum(*args, **kwargs)
        value = got.value + 10.0 * got.truncation_bound
        return SeriesValue(value, got.terms_used, got.truncation_bound, got.method_tag)

    assert passes("poisson_orbit_identity")
    monkeypatch.setattr(summation, "lattice_sum", shifted)
    assert not passes("poisson_orbit_identity")


def test_boundary_check_fails_when_the_wall_profile_is_shifted(monkeypatch):
    interval_density = energy._interval_density

    def shifted(geom, t, x):
        weyl, per, wall = interval_density(geom, t, x)
        return weyl, per, wall + 1e-9

    assert passes("boundary_energy_vanishing")
    monkeypatch.setattr(energy, "_interval_density", shifted)
    assert not passes("boundary_energy_vanishing")


def test_full_verification_suite_under_budget(capsys):
    t0 = time.perf_counter()
    results = run_checks()
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 60.0
    scorecard(capsys, ok, "full verification registry",
              f"{sum(r.passed for r in results)}/{len(results)} checks in {elapsed:.1f}s "
              f"(budget 60s)")
    assert failed == [], failed
    assert elapsed < 60.0
