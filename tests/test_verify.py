import json
import math

import numpy as np
import pytest

from robinopt import Domain, GeometryError
from robinopt import (
    run_asymptotic_suite,
    run_blowup_demo,
    run_blowup_suite,
    run_heat_content_suite,
    run_optimality_suite,
)
from robinopt import verify
from robinopt.errors import ResolutionCapError


def test_optimality_suite_disk():
    rep = run_optimality_suite(Domain.disk(1.0), -10.0, samples=15, seed=7,
                               h=0.05)
    assert rep.passed, rep.to_table()
    # every case carries measured and expected values
    for c in rep.cases:
        assert math.isfinite(c.measured) and math.isfinite(c.expected)
    worst = rep.cases[0]
    assert worst.measured <= worst.expected


def test_optimality_suite_degenerate_zero():
    rep = run_optimality_suite(Domain.disk(1.0), 0.0, samples=6, seed=3,
                               h=0.08)
    assert rep.passed
    assert rep.cases[0].measured <= 0.0  # all perturbed eigenvalues <= 0


def test_optimality_suite_rejects_positive_mu():
    with pytest.raises(GeometryError):
        run_optimality_suite(Domain.disk(1.0), 1.0, samples=2, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
def test_optimality_suite_refuses_bad_seed_before_meshing(monkeypatch, seed):
    def no_mesh(*args):
        raise AssertionError("meshed before the seed was checked")

    monkeypatch.setattr(verify, "mesh_for", no_mesh)
    with pytest.raises(GeometryError, match="seed must be a non-negative"):
        run_optimality_suite(Domain.disk(1.0), -1.0, samples=2, seed=seed)


def test_optimality_adversarial_case_far_below():
    rep = run_optimality_suite(Domain.rectangle(1.0, 1.0), -6.0, samples=3,
                               seed=1, h=0.06)
    adv = rep.cases[-1]
    assert adv.measured < adv.expected - 10.0


def test_optimality_holds_on_whole_catalogue(catalogue):
    # the sup property is the falsifiable core; spot-check every domain
    for name, dom in catalogue.items():
        rep = run_optimality_suite(dom, -6.0, samples=6, seed=2, h=0.07)
        assert rep.passed, (name, rep.to_table())


def test_asymptotic_suite_disk_exact_channel():
    rep = run_asymptotic_suite(Domain.disk(1.0),
                               list(np.linspace(-200.0, -20.0, 10)))
    assert rep.passed, rep.to_table()
    assert rep.cases[0].measured <= 4.0


def test_asymptotic_suite_square_trend():
    rep = run_asymptotic_suite(Domain.rectangle(1.0, 1.0),
                               [-20.0, -14.0, -8.0], h=0.03)
    assert rep.passed, rep.to_table()


def test_asymptotic_suite_small_mu():
    rep = run_asymptotic_suite(Domain.disk(1.0), [-0.05, 0.05])
    assert rep.passed, rep.to_table()
    for c in rep.cases:
        assert c.expected == pytest.approx(-1 / (8 * math.pi**2))


def test_asymptotic_suite_cap_error_lists_subgrid():
    with pytest.raises(ResolutionCapError, match="admissible"):
        run_asymptotic_suite(Domain.rectangle(1.0, 1.0),
                             [-1e5, -8.0], h=0.05)


def test_heat_suite_square_coarse():
    rep = run_heat_content_suite(Domain.rectangle(1.0, 1.0), h=0.03)
    assert rep.passed, rep.to_table()


def test_blowup_trace_decreasing_disk():
    trace = run_blowup_demo(Domain.disk(1.0), -1.0, n_max=8)
    assert trace.n_values == (4, 5, 6, 7, 8)
    assert all(a > b for a, b in zip(trace.quotients, trace.quotients[1:]))
    # gradient decays, boundary term stays negative and dominant
    assert trace.gradient_terms[-1] < trace.gradient_terms[0]
    assert trace.boundary_terms[-1] < 0
    assert abs(trace.boundary_terms[-1]) > trace.gradient_terms[-1]
    assert trace.truncated_at is None


def test_blowup_trace_truncates_beyond_grading_cap():
    with pytest.warns(UserWarning, match="truncated"):
        trace = run_blowup_demo(Domain.disk(1.0), -1.0, n_max=16)
    assert trace.truncated_at is not None
    assert max(trace.n_values) < 16


def test_blowup_requires_negative_mu():
    with pytest.raises(GeometryError):
        run_blowup_demo(Domain.disk(1.0), 0.5)
    with pytest.raises(GeometryError):
        run_blowup_demo(Domain.disk(1.0), -1.0, n_max=3)
    with pytest.raises(GeometryError):
        run_blowup_demo(Domain.lshape(), -1.0)


def test_blowup_suite_rectangle():
    rep = run_blowup_suite(Domain.rectangle(1.0, 1.0), -1.0, n_max=7)
    assert rep.passed, rep.to_table()


def test_suite_reports_are_deterministic():
    a = run_optimality_suite(Domain.disk(1.0), -8.0, samples=9, seed=7,
                             h=0.07)
    b = run_optimality_suite(Domain.disk(1.0), -8.0, samples=9, seed=7,
                             h=0.07)
    assert a.to_json() == b.to_json()
    # and a different seed gives different numbers
    c = run_optimality_suite(Domain.disk(1.0), -8.0, samples=9, seed=8,
                             h=0.07)
    assert a.to_json() != c.to_json()


def test_report_schema_and_flags():
    rep = run_blowup_suite(Domain.disk(1.0), -1.0, n_max=6)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"suite", "cases", "pass", "runtime_s"}
    assert payload["runtime_s"] is None
    for case in payload["cases"]:
        assert set(case) == {"description", "measured", "expected",
                             "tolerance", "pass"}
    assert payload["pass"] == all(c["pass"] for c in payload["cases"])
    assert rep.runtime_s > 0.0
    assert "suite" in rep.to_table()
