import numpy as np
import pytest

from worldtrack import gradcheck, losses
from worldtrack.gradcheck import (
    ALL_CHECKS,
    CheckResult,
    check_align_gradient,
    check_pose_gradient,
    check_traj_gradient,
    run_all,
)


def test_all_checks_pass():
    results = run_all(seed=0, trials=2)
    assert len(results) == len(ALL_CHECKS)
    for res in results:
        assert res.passed, f"{res.name}: {res.max_rel_err}"
        assert res.max_rel_err < res.tolerance


def test_results_are_deterministic():
    a = run_all(seed=4, trials=2)
    b = run_all(seed=4, trials=2)
    assert [r.max_rel_err for r in a] == [r.max_rel_err for r in b]


def test_passed_property():
    assert CheckResult("x", 1e-6, 1e-4).passed
    assert not CheckResult("x", 2e-4, 1e-4).passed
    assert not CheckResult("x", np.nan, 1e-4).passed


def test_sabotaged_gradient_is_caught(monkeypatch):
    """The checker must exercise the live loss module, not a stale copy."""
    real = losses._traj_terms

    def flipped(*args, **kwargs):
        loss, grad, dropped, checks = real(*args, **kwargs)
        return loss, -grad, dropped, checks

    monkeypatch.setattr(losses, "_traj_terms", flipped)
    res = check_traj_gradient(np.random.default_rng(0))
    assert not res.passed


def test_sabotaged_align_scatter_is_caught(monkeypatch):
    real = losses._scatter
    monkeypatch.setattr(losses, "_scatter", lambda *args: 0.5 * real(*args))
    res = check_align_gradient(np.random.default_rng(0))
    assert not res.passed


def test_sabotaged_live_pose_routing_is_caught(monkeypatch):
    """The pose check audits the pull-back live adaptation runs: dropping
    its 1/T on the rotation gradient must fail it."""
    real = losses._recon_gradient

    def unscaled(g_rec, g_R, *args):
        return real(g_rec, len(g_rec) * g_R, *args)

    monkeypatch.setattr(losses, "_recon_gradient", unscaled)
    assert not check_pose_gradient(np.random.default_rng(0)).passed


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_each_check_individually(check):
    res = check(np.random.default_rng(123))
    assert res.passed
