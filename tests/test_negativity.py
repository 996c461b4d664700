import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from moyal import negativity
from moyal.errors import BoxTooSmallError, ConvergenceError
from moyal.grid import GridSpec, wigner_from_wavefunction
from moyal.models import DampedParams, damped_wigner_values, hermite_function
from moyal.negativity import (ETA_REFERENCE, damped_box, eta_grid,
                              eta_grid_damped, eta_radial, laguerre_roots,
                              lambda_scan, negativity_table)

from oracles import (adaptive_eta_greedy, eta_exact, eta_radial_mp,
                     eta_radial_panels, eval_panels_weighted,
                     laguerre_roots_bracketed)

ETA_40_DIGITS = Path(__file__).resolve().parents[1] / "perfbench" / "eta_reference.json"


def test_laguerre_roots_interlace():
    r4 = laguerre_roots(4)
    r5 = laguerre_roots(5)
    assert len(r5) == 5 and np.all(np.diff(r5) > 0)
    # roots of consecutive orders interlace
    for j in range(4):
        assert r5[j] < r4[j] < r5[j + 1]
    # they really are roots
    from moyal.models import laguerre
    assert np.abs(laguerre(5, r5)).max() < 1e-12


def test_laguerre_roots_empty_for_n0():
    assert laguerre_roots(0).shape == (0,)


def test_laguerre_roots_match_bracketed_walk():
    for n in range(1, 21):
        roots = laguerre_roots(n)
        walk = laguerre_roots_bracketed(n)
        assert roots.shape == (n,)
        assert np.abs(roots / walk - 1.0).max() <= 1e-14


def test_laguerre_roots_without_warnings():
    # laggauss's weights divide by zero from n = 187 on; the roots take
    # only its eigenvalue problem
    for n in range(1, 201):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert laguerre_roots(n).shape == (n,)
    for n in (200, 250, 300, 350):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = eta_radial(n)
        assert rec.eta > 0.0 and rec.err_estimate < 1e-12


@pytest.mark.parametrize("n", [30, 50])
def test_laguerre_roots_newton_correction_at_50_digits(n):
    # L_n' = -L_{n-1}^{(1)}; both sides from mpmath's generalized Laguerre
    from mpmath import laguerre, mp, mpf

    with mp.workdps(50):
        for y in laguerre_roots(n):
            y = mpf(float(y))
            correction = laguerre(n, 0, y) / laguerre(n - 1, 1, y)
            assert abs(correction) / y <= 1e-14


def test_eta_radial_ground_state_zero():
    rec = eta_radial(0)
    assert rec.eta == 0.0 and rec.err_estimate == 0.0
    assert rec.method == "radial"


def test_eta_radial_closed_form_n1():
    # eta(1) = 4 exp(-1/2) - 2 exactly: the one root is 1, t_1 = -4 exp(-1/2)
    assert eta_radial(1).eta == 4.0 * np.exp(-0.5) - 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 14, 20])
def test_eta_radial_against_exact_antiderivative(n):
    # the same formula on the bracketed roots; eta_radial_panels is the
    # independent route
    rec = eta_radial(n)
    assert rec.eta == pytest.approx(eta_exact(n), abs=1e-11)
    assert rec.err_estimate < 1e-10


@pytest.mark.parametrize("n", list(range(61)) + [100, 150, 200])
def test_eta_radial_against_the_panel_rule(n):
    rec = eta_radial(n)
    eta, err = eta_radial_panels(n)
    assert abs(rec.eta - eta) <= rec.err_estimate + err


def test_eta_radial_within_its_estimate_of_the_40_digit_values():
    from mpmath import mp, mpf

    digits = json.loads(ETA_40_DIGITS.read_text())["eta"]
    assert len(digits) == 25
    with mp.workdps(40):
        for n, ref in enumerate(digits):
            rec = eta_radial(n)
            assert abs(mpf(rec.eta) - mpf(ref)) <= rec.err_estimate


def test_eta_radial_mp_oracle_reproduces_the_40_digit_values():
    from mpmath import mp, mpf

    digits = json.loads(ETA_40_DIGITS.read_text())["eta"]
    with mp.workdps(40):
        for n, ref in enumerate(digits):
            assert abs(eta_radial_mp(n) - mpf(ref)) <= mpf("1e-35")


@pytest.mark.parametrize("n", list(range(25, 61, 5)) + [75, 100, 150, 200])
def test_eta_radial_within_its_estimate_beyond_n24(n):
    from mpmath import mp, mpf

    rec = eta_radial(n)
    with mp.workdps(40):
        assert abs(mpf(rec.eta) - eta_radial_mp(n)) <= rec.err_estimate


def test_eta_radial_against_reference_digits():
    # The printed reference values carry the original numerics' noise
    # (up to ~1e-5 for large n; see the decisions ledger).  The first
    # entries are good to ~5e-9 and are asserted tightly here; the strict
    # 1e-8 comparison across all n lives in the acceptance suite.
    assert eta_radial(1).eta == pytest.approx(ETA_REFERENCE[1], abs=1e-8)
    assert eta_radial(2).eta == pytest.approx(ETA_REFERENCE[2], abs=1e-8)
    for n in range(3, 10):
        assert eta_radial(n).eta == pytest.approx(ETA_REFERENCE[n], abs=2e-5)


def test_eta_sequence_properties():
    records = negativity_table(12)
    etas = [r.eta for r in records]
    assert etas[0] == 0.0
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert all(e >= 0.0 for e in etas)


def test_negativity_table_single_row():
    records = negativity_table(0)
    assert len(records) == 1 and records[0].eta == 0.0


def test_eta_grid_nonnegative_state():
    rec = eta_grid_damped(0, 0.9, 1e-6)
    assert abs(rec.eta) <= 1e-6


def test_eta_grid_against_reference():
    rec = eta_grid_damped(2, 0.5, 1e-4)
    assert rec.eta == pytest.approx(ETA_REFERENCE[2], abs=1e-3)
    assert rec.err_estimate <= 1e-3


def test_eta_grid_scale_invariance():
    # normalization is re-imposed internally: c*W gives the same indicator
    dp = DampedParams(0.3, 1)
    box = damped_box(1, 0.3)
    base = eta_grid(lambda Q, P: damped_wigner_values(dp, Q, P), box, 1e-5)
    scaled = eta_grid(lambda Q, P: 2.5 * damped_wigner_values(dp, Q, P), box, 1e-5)
    assert scaled.eta == pytest.approx(base.eta, abs=1e-6)


def _damped_quadrature(n, lam, tol):
    """(func, box, tol) that eta_grid_damped hands to the adaptive loop."""
    seen = []

    def spy(func, box, tol):
        seen.append((func, box, tol))
        return 1.0, 1.0, 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(negativity, "_adaptive_eta", spy)
        eta_grid_damped(n, lam, tol)
    return seen[0]


def _counted(func):
    """func wrapped to count its calls and the points it is asked for."""
    count = {"calls": 0, "points": 0}

    def wrapped(Q, P):
        count["calls"] += 1
        count["points"] += np.broadcast(Q, P).size
        return func(Q, P)

    return wrapped, count


_REPLAY_CASES = (
    [(n, lam, 1e-3) for n in range(11) for lam in (0.6, -0.6)]
    + [(n, lam, 1e-3 / 3) for n in (1, 2, 3)
       for lam in (0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9)]
    + [(n, 0.6, 3e-4) for n in range(6)])


@pytest.mark.parametrize("n, lam, tol", _REPLAY_CASES)
def test_adaptive_eta_is_bitwise_the_greedy_loop(n, lam, tol, monkeypatch):
    # n = 8 at lambda = +-0.6, tol 1e-3 is the early stop: a few turns only
    func, box, tol = _damped_quadrature(n, lam, tol)
    eval_panels = negativity._eval_panels
    results, boxes = [], []
    for loop in (negativity._adaptive_eta, adaptive_eta_greedy):
        seen = []
        monkeypatch.setattr(negativity, "_eval_panels", lambda f, b, seen=seen: (
            seen.append(b) or eval_panels(f, b)))
        results.append(loop(func, box, tol))
        b = np.vstack(seen)
        boxes.append(b[np.lexsort(b.T[::-1])])
    assert results[0] == results[1]
    # each panel a batch refines is one the greedy loop refines too
    assert np.array_equal(boxes[0], boxes[1])


def _recording(func, seen):
    """func wrapped to keep a copy of the arguments of each call."""

    def wrapped(S, T):
        seen.append((np.array(S), np.array(T)))
        return func(S, T)

    return wrapped


@pytest.mark.parametrize("lam", [0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
def test_principal_frame_integrand_matches_damped_wigner_values(n, lam):
    # on the points the panels and the tail check hand it: the (B, 8, 1)
    # and (B, 1, 8) node layout and the 1-D boundary lines
    func, box, tol = _damped_quadrature(n, lam, 1e-3)
    seen = []
    root = np.array([box])
    negativity._eval_panels(_recording(func, seen), np.vstack(
        [root, negativity._quarters(negativity._quarters(root))]))
    negativity._check_tail(_recording(func, seen), box, tol)
    shapes = {(S.ndim, T.ndim) for S, T in seen}
    assert shapes == {(3, 3), (1, 1)}
    dp = DampedParams(lam, n)
    r = 1.0 / np.sqrt(2.0)
    for S, T in seen:
        got = func(S, T)
        want = damped_wigner_values(dp, (S + T) * r, (S - T) * r)
        assert got.shape == want.shape
        # |W_n| <= 1/pi everywhere
        assert np.abs(got - want).max() <= 1e-14 / np.pi


@pytest.mark.parametrize("n, lam", [(2, -0.6), (5, 0.3), (10, 0.9)])
def test_panel_sums_do_not_depend_on_the_batch(n, lam):
    # the batched loop's bitwise match with the greedy one rests on this: a
    # box's sums are the same bits alone, in a short batch or in a long one
    func, box, _ = _damped_quadrature(n, lam, 1e-3)
    boxes = np.array([box])
    for _ in range(4):
        boxes = np.vstack([boxes, negativity._quarters(boxes)])
    neg, tot = negativity._eval_panels(func, boxes)
    slices = [(i, i + 1) for i in range(0, len(boxes), 7)] + [
        (3, 8), (5, 9), (7, 70), (100, 228), (0, len(boxes))]
    for lo, hi in slices:
        part = negativity._eval_panels(func, boxes[lo:hi])
        assert part[0].tobytes() == neg[lo:hi].tobytes()
        assert part[1].tobytes() == tot[lo:hi].tobytes()


def _canonical_boxes(boxes, lam):
    """Box rows mapped into the first quadrant, sorted.

    The damped W is even in s and in t of its principal frame, and at
    lambda = 0 also symmetric under s <-> t on a square box, so mirror-image
    panels carry the same sums up to rounding, and which of them the
    greedy loop takes first is decided by the last bit.  Every box but the
    root lies in one quadrant, so the map is exact.
    """
    b = np.array(boxes)
    for lo, hi in ((0, 1), (2, 3)):
        flip = b[:, hi] <= 0.0
        b[flip, lo], b[flip, hi] = -b[flip, hi], -b[flip, lo]
    if lam == 0.0:
        swap = (b[:, 0] > b[:, 2]) | ((b[:, 0] == b[:, 2]) & (b[:, 1] > b[:, 3]))
        b[swap] = b[swap][:, [2, 3, 0, 1]]
    return b[np.lexsort(b.T[::-1])]


@pytest.mark.parametrize("n, lam, tol", _REPLAY_CASES)
def test_eta_grid_damped_evaluates_the_boxes_of_the_old_integrand(
        n, lam, tol, monkeypatch):
    # the oracle run: W at the rotated lab points and sums over a per-box
    # weight grid, through the same adaptive loop
    _, box, _ = _damped_quadrature(n, lam, tol)
    dp = DampedParams(lam, n)
    r = 1.0 / np.sqrt(2.0)

    def rotated(S, T):
        return damped_wigner_values(dp, (S + T) * r, (S - T) * r)

    runs = []
    for panels, run in (
            (negativity._eval_panels, lambda: eta_grid_damped(n, lam, tol)),
            (eval_panels_weighted, lambda: eta_grid(
                rotated, box, tol, model="damped", n=n, lam=lam))):
        seen = []
        monkeypatch.setattr(
            negativity, "_eval_panels",
            lambda f, b, panels=panels, seen=seen: (
                seen.append(b) or panels(f, b)))
        runs.append((run(), _canonical_boxes(np.vstack(seen), lam)))
    (new, new_boxes), (old, old_boxes) = runs
    assert np.array_equal(new_boxes, old_boxes)
    assert abs(new.eta - old.eta) <= 1e-13
    assert abs(new.err_estimate - old.err_estimate) <= 1e-13


def test_adaptive_eta_rescaled_callable_is_bitwise_the_greedy_loop():
    dp = DampedParams(0.3, 1)
    box = damped_box(1, 0.3)

    def func(Q, P):
        return 2.5 * damped_wigner_values(dp, Q, P)

    assert negativity._adaptive_eta(func, box, 1e-5) == \
        adaptive_eta_greedy(func, box, 1e-5)


def test_adaptive_eta_panel_budget_matches_the_greedy_loop(monkeypatch):
    func, box, tol = _damped_quadrature(3, 0.6, 1e-3)
    counted, count = _counted(func)
    adaptive_eta_greedy(counted, box, tol)
    turns = count["calls"] - 2  # the root costs two calls
    assert turns > 1
    # the last turn pops with 1 + 3 (turns - 1) panels; a budget one below
    # that raises in both loops, a budget equal to it in neither
    monkeypatch.setattr(negativity, "_MAX_PANELS", 1 + 3 * (turns - 1))
    assert negativity._adaptive_eta(func, box, tol) == \
        adaptive_eta_greedy(func, box, tol)
    monkeypatch.setattr(negativity, "_MAX_PANELS", 3 * (turns - 1))
    for loop in (negativity._adaptive_eta, adaptive_eta_greedy):
        with pytest.raises(ConvergenceError):
            loop(func, box, tol)


def test_adaptive_eta_batches_func_calls():
    func, box, tol = _damped_quadrature(10, 0.6, 1e-3)
    batched, new = _counted(func)
    greedy, old = _counted(func)
    negativity._adaptive_eta(batched, box, tol)
    adaptive_eta_greedy(greedy, box, tol)
    assert 3 * new["calls"] <= old["calls"]
    assert new["points"] <= 1.15 * old["points"]


@pytest.mark.xfail(strict=True, reason=(
    "grid quadrature stops too early: the |refined - coarse| estimate of "
    "_adaptive_eta misses a nodal line that both GL8 levels miss alike, "
    "so eta(8) at lambda = +-0.6 is 0.034 off with err_estimate 3.8e-4"))
def test_eta_grid_n8_within_its_error_estimate():
    radial = eta_radial(8).eta
    for lam in (0.6, -0.6):
        rec = eta_grid_damped(8, lam, 1e-3)
        assert abs(rec.eta - radial) <= rec.err_estimate


@pytest.mark.xfail(strict=True, reason=(
    "grid quadrature stops too early: the |refined - coarse| estimate of "
    "_adaptive_eta misses part of a nodal line, so eta(8) at lambda = +-0.1 "
    "and tol 1e-4 is 6.2e-5 off with err_estimate 5.0e-5"))
def test_eta_grid_n8_small_lambda_within_its_error_estimate():
    radial = eta_radial(8).eta
    for lam in (0.1, -0.1):
        rec = eta_grid_damped(8, lam, 1e-4)
        assert abs(rec.eta - radial) <= rec.err_estimate


def test_eta_grid_box_too_small():
    dp = DampedParams(0.0, 1)
    with pytest.raises(BoxTooSmallError) as info:
        eta_grid(lambda Q, P: damped_wigner_values(dp, Q, P),
                 (-2.0, 2.0, -2.0, 2.0), 1e-6)
    assert info.value.required_box is not None


def test_eta_grid_from_gridfield_oracle():
    # harmonic n=1 Wigner function sampled by the wavefunction oracle
    spec = GridSpec(-8.0, 8.0, -8.0, 8.0, 801, 801)
    field = wigner_from_wavefunction(lambda x: hermite_function(1, x), spec)
    rec = eta_grid(field, tol=1e-4, model="harmonic", n=1)
    assert rec.eta == pytest.approx(eta_radial(1).eta, abs=1e-4)


def test_lambda_scan_matches_radial():
    report = lambda_scan(1, (0.0, 0.3, 0.6, 0.9), 1e-3)
    assert report.ok
    assert report.max_deviation <= 1e-3
    for rec in report.grid:
        assert rec.eta == pytest.approx(0.42612, abs=1e-3)


def test_lambda_scan_trivial_and_failure_report():
    report0 = lambda_scan(0, (0.0, 0.5), 1e-3)
    assert report0.ok and all(abs(r.eta) < 1e-6 for r in report0.grid)
    # unreachable tolerance must produce an honest failure report
    strict = lambda_scan(2, (0.0, 0.9), 1e-9)
    assert not strict.ok
    assert len(strict.grid) == 2 and strict.max_deviation > 1e-9


def test_lambda_scan_n5_reference_value():
    report = lambda_scan(5, (0.0, 0.9), 1e-3)
    assert report.ok
    for rec in report.grid:
        assert rec.eta == pytest.approx(1.3834384857, abs=1e-3)


def test_lambda_scan_rejects_bad_lambda():
    with pytest.raises(ValueError):
        lambda_scan(1, (0.0, 1.5), 1e-3)


def test_fig9_scale_table_runtime():
    t0 = time.perf_counter()
    records = negativity_table(50)
    elapsed = time.perf_counter() - t0
    etas = [r.eta for r in records]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert elapsed < 60.0
