"""Non-classicality indicator eta = int |W| - 1 for stationary states.

Two deliberately independent routes:

* eta_radial: after the 45-degree rotation and axis rescaling that
  diagonalize y(q, p), the damped Wigner function W_n depends on the single
  variable y and the Jacobian is 1/2 independently of the dissipation
  parameter, so

      eta(n) = (1/2) int_0^inf exp(-y/2) |L_n(y)| dy - 1.

  Integration by parts with L_n' = -(L_0 + ... + L_{n-1}) gives the exact
  antiderivative int exp(-y/2) L_n dy = -2 exp(-y/2) G_n(y), with
  G_n = L_n - 2 L_{n-1} + 2 L_{n-2} - ... +- 2 L_0 one Laguerre series and
  G_n(0) = (-1)^n.  L_n is positive at 0 and changes sign at each of its
  roots r_1 < ... < r_n, so eta comes from the root values alone:

      eta(n) = (-1)^n - 1 + sum_j (-1)^j t_j,   t_j = 2 exp(-r_j/2) G_n(r_j).

  The roots are the Gauss-Laguerre nodes of the Golub-Welsch eigenvalue
  problem, polished by two Newton steps.

* eta_grid: adaptive 2D panel quadrature of (|W| - W) over a box, with
  embedded error estimates from one level of panel refinement.  The
  normalization is re-imposed internally (eta = int(|W| - W) / int W), so
  a rescaled input yields the same indicator.  Each turn refines the
  worst panels (ties by insertion) with one call of the integrand: up to
  eight of them, each only while the errors of those above it leave the
  loop running, so every one is a panel that refining the worst panel
  alone, one per call, would also reach.  The sums are exactly rounded
  over the final panels, so the estimate is bitwise that of the
  one-panel loop.  Each call gets the GL8 nodes of its boxes as Q of
  shape (B, 8, 1) and P of shape (B, 1, 8), and both panel sums contract
  the values with one table of the 64 product weights.

* eta_grid_damped: eta_grid on the damped W_n in its principal frame
  (s, t), the 45-degree rotation of (q, p).  There the support is an
  axis-aligned rectangle and W_n = ((-1)^n / pi) exp(-alpha s^2 / 2)
  exp(-beta t^2 / 2) L_n(alpha s^2 + beta t^2), so the squares and the
  Gaussian factors are formed once per node row and column; the sum y,
  the Laguerre recurrence and two products run on every node.

The sequence eta(n) is strictly increasing and lambda-free.  The stored
reference values below (n = 0..9) are not the exact eta: they differ from
it by 4.4e-9 at n = 1 and by up to 9.7e-6 at n = 9.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxTooSmallError, ConvergenceError
from .grid import GridField
from .models import DampedParams, laguerre_pair

# Reference eta(n) for the damped oscillator, n = 0..9 (lambda-independent),
# kept as stored.  They differ from the exact eta by up to 9.7e-6 (n = 9;
# 4.4e-9 at n = 1), so acceptance criterion 1, which asks for 1e-8 absolute,
# fails on purpose: the stored digits are off, not the radial route.
ETA_REFERENCE = (
    0.0,
    0.4261226344263795,
    0.7289892587057898,
    0.9766730799293403,
    1.1913424288065964,
    1.3834384856692004,
    1.5588521972493026,
    1.7212933835545317,
    1.873265816082318,
    2.016572434609475,
)


@dataclass(frozen=True)
class NegativityRecord:
    model: str
    n: int
    lam: float
    method: str
    eta: float
    err_estimate: float


@dataclass(frozen=True)
class LambdaScanReport:
    n: int
    tol: float
    radial: NegativityRecord
    grid: tuple
    max_deviation: float
    ok: bool
    lams: tuple = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# radial method
# ---------------------------------------------------------------------------


def laguerre_roots(n: int) -> np.ndarray:
    """All n roots of L_n, ascending: Gauss-Laguerre nodes, two Newton steps.

    The nodes of the n-point Gauss-Laguerre rule are the roots of L_n: the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    three-term recurrence (Golub & Welsch, Math. Comp. 23, 221 (1969)).
    Two vectorized Newton steps through the recurrence, with
    y L_n' = n (L_n - L_{n-1}), polish them to full double precision.
    """
    if n == 0:
        return np.empty(0)
    c = np.zeros(n + 1)
    c[n] = 1.0
    roots = np.linalg.eigvalsh(np.polynomial.laguerre.lagcompanion(c))
    for _ in range(2):
        Ln, Lnm1 = laguerre_pair(n, roots)
        roots = roots - roots * Ln / (n * (Ln - Lnm1))
    if not (roots[0] > 0.0 and np.all(np.diff(roots) > 0.0)):
        raise ConvergenceError(
            f"Laguerre roots not positive and increasing (n={n})")
    return roots


def eta_radial(n: int, lam: float = 0.0) -> NegativityRecord:
    """eta(n) by the 1D radial route; exactly lambda-free by construction.

    The error estimate eps sum_j |t_j| allows one rounding per term t_j of
    the module docstring's sum; an error in a root r_j enters only at
    second order, since dt_j/dr_j = exp(-r_j/2) L_n(r_j) = 0.  It is an
    estimate, not a bound: the rounding of exp, of the Clenshaw recurrence
    over n + 1 terms and of the n-term sum is left out.  Against 40-digit
    values the error is at most 0.43 of it for n <= 350.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return NegativityRecord("damped", 0, lam, "radial", 0.0, 0.0)
    roots = laguerre_roots(n)
    # G_n = L_n - 2 L_{n-1} + 2 L_{n-2} - ... +- 2 L_0
    c = 2.0 * (-1.0) ** (n - np.arange(n + 1))
    c[n] = 1.0
    t = 2.0 * np.exp(-0.5 * roots) * np.polynomial.laguerre.lagval(roots, c)
    err = np.finfo(float).eps * np.abs(t).sum()
    t[::2] *= -1.0
    eta = (-1.0) ** n - 1.0 + t.sum()
    return NegativityRecord("damped", n, lam, "radial", float(eta), float(err))


# ---------------------------------------------------------------------------
# grid method (adaptive 2D panels)
# ---------------------------------------------------------------------------

_GL8 = np.polynomial.legendre.leggauss(8)
# the 64 weights w_i w_j of the GL8 x GL8 product rule, row by row
_W64 = np.outer(_GL8[1], _GL8[1]).ravel()
_MAX_PANELS = 60_000
# most panels refined per func call, the worst ones on the heap
# (8 boxes x 16 x 64 nodes = 8192 points)
_BATCH = 8


def _quarters(boxes):
    """The four quarter boxes of each (qa, qb, pa, pb) row, one box in turn."""
    b = np.asarray(boxes, dtype=float)
    qm = 0.5 * (b[:, 0] + b[:, 1])
    pm = 0.5 * (b[:, 2] + b[:, 3])
    out = np.repeat(b[:, None, :], 4, axis=1)
    out[:, :2, 1] = qm[:, None]
    out[:, 2:, 0] = qm[:, None]
    out[:, ::2, 3] = pm[:, None]
    out[:, 1::2, 2] = pm[:, None]
    return out.reshape(-1, 4)


def _eval_panels(func, boxes):
    """(int(|W|-W), int W) on each box row, one vectorized call for all.

    func gets Q of shape (B, 8, 1) and P of shape (B, 1, 8), the GL8 nodes
    of each box.  Both sums contract the values with one table of the 64
    node weights and scale by the box's half-widths; |W| - W = -2 min(W, 0)
    exactly.  einsum's loop reduces each row in the same order whatever the
    number of rows, so a panel's sums do not depend on its batch.
    """
    nodes, _ = _GL8
    qm = 0.5 * (boxes[:, 0] + boxes[:, 1])
    qr = 0.5 * (boxes[:, 1] - boxes[:, 0])
    pm = 0.5 * (boxes[:, 2] + boxes[:, 3])
    pr = 0.5 * (boxes[:, 3] - boxes[:, 2])
    Q = qm[:, None, None] + qr[:, None, None] * nodes[None, :, None]
    P = pm[:, None, None] + pr[:, None, None] * nodes[None, None, :]
    vals = np.broadcast_to(np.real(func(Q, P)), (len(boxes), 8, 8))
    vals = vals.reshape(len(boxes), 64)
    area = qr * pr
    neg = np.einsum("bk,k->b", np.minimum(vals, 0.0), _W64) * (-2.0 * area)
    tot = np.einsum("bk,k->b", vals, _W64) * area
    return neg, tot


def _panels(boxes, coarse, neg, tot):
    """Panel tuples (box, neg, tot, err, quarter negs) from quarter sums.

    neg and tot hold the four quarters of each box in turn; a panel's
    estimate is their sum, its error |sum - coarse|.
    """
    n4 = neg.reshape(-1, 4)
    t4 = tot.reshape(-1, 4)
    # left to right from 0, as the built-in sum adds (so -0.0 gives 0.0)
    pneg = 0.0 + n4[:, 0] + n4[:, 1] + n4[:, 2] + n4[:, 3]
    ptot = 0.0 + t4[:, 0] + t4[:, 1] + t4[:, 2] + t4[:, 3]
    perr = np.abs(pneg - np.asarray(coarse))
    return list(zip(boxes.tolist(), pneg.tolist(), ptot.tolist(),
                    perr.tolist(), n4.tolist()))


def _refine(func, parents):
    """The four child panels of each parent panel, one func call for all."""
    boxes = _quarters([p[0] for p in parents])
    neg, tot = _eval_panels(func, _quarters(boxes))
    kids = _panels(boxes, [c for p in parents for c in p[4]], neg, tot)
    return [kids[4 * i:4 * i + 4] for i in range(len(parents))]


def _adaptive_eta(func, box, tol):
    """Globally adaptive quadrature: always refine the worst panels.

    Returns (int(|W|-W), int W, error estimate).  Each turn pops the
    panels with the largest |refined - coarse|, ties broken by insertion
    order, and refines them with one func call: up to _BATCH panels, each
    one after the first only while the errors of those above it leave the
    error total above the stopping level.  The total then stays above it
    until that panel is popped, so a loop that refines one panel per call
    refines it too.  The results are exactly rounded sums over the final
    panels: they depend on which panels were refined, not on the order.
    Only the error total runs, for the stopping test.
    """
    root_box = np.array([box], dtype=float)
    neg, tot = _eval_panels(func, np.vstack([root_box, _quarters(root_box)]))
    root = _panels(root_box, [neg[0]], neg[1:], tot[1:])[0]
    counter = 0
    heap = [(-root[3], counter, root)]
    total_err = root[3]
    n_panels = 1
    while total_err > 0.4 * tol:
        batch = []
        while heap and len(batch) < _BATCH and total_err > 0.4 * tol:
            if n_panels > _MAX_PANELS:
                raise ConvergenceError(
                    "adaptive quadrature exceeded panel budget")
            batch.append(heapq.heappop(heap)[2])
            total_err -= batch[-1][3]
            n_panels += 3
        for children in _refine(func, batch):
            for child in children:
                counter += 1
                heapq.heappush(heap, (-child[3], counter, child))
                total_err += child[3]
    _, neg, tot, err, _ = zip(*(entry[2] for entry in heap))
    return math.fsum(neg), math.fsum(tot), math.fsum(err)


def _check_tail(func, box, tol):
    qa, qb, pa, pb = box
    volume = (qb - qa) * (pb - pa)
    edge = np.linspace(0.0, 1.0, 33)
    qs = qa + (qb - qa) * edge
    ps = pa + (pb - pa) * edge
    boundary = np.concatenate([
        np.abs(np.real(func(qs, np.full_like(qs, pa)))),
        np.abs(np.real(func(qs, np.full_like(qs, pb)))),
        np.abs(np.real(func(np.full_like(ps, qa), ps))),
        np.abs(np.real(func(np.full_like(ps, qb), ps))),
    ])
    limit = tol / volume
    if boundary.max() > limit:
        grow = 1.5
        required = (qa * grow, qb * grow, pa * grow, pb * grow)
        raise BoxTooSmallError(
            f"boundary magnitude {boundary.max():.3e} exceeds {limit:.3e}; "
            f"a box of at least {required} is needed", required_box=required)


def eta_grid(W, box=None, tol: float = 1e-4, model: str = "custom",
             n: int = 0, lam: float = 0.0) -> NegativityRecord:
    """eta by adaptive 2D quadrature of (|W| - W), renormalized by int W.

    W may be a vectorized callable W(Q, P) with `box` required, or a
    GridField (its own box is used).  The box must contain the support:
    the boundary values are checked against tol/volume and a too-small box
    raises BoxTooSmallError naming a sufficient one.
    """
    if isinstance(W, GridField):
        return _eta_from_gridfield(W, tol, model=model, n=n, lam=lam)
    if box is None:
        raise ValueError("a box is required when W is a callable")
    qa, qb, pa, pb = (float(v) for v in box)
    _check_tail(W, (qa, qb, pa, pb), tol)
    neg, tot, err = _adaptive_eta(W, (qa, qb, pa, pb), tol)
    if tot == 0.0:
        raise ConvergenceError("integral of W over the box vanished")
    eta = neg / tot
    err = err / abs(tot) + 0.1 * tol
    return NegativityRecord(model, n, lam, "grid", float(eta), float(err))


def _cell_integrals(W: np.ndarray, dq: float, dp: float, m: int = 16):
    """(int(|W|-W), int W) by bilinear cells with kink-cell subdivision."""
    c00 = W[:-1, :-1]
    c01 = W[:-1, 1:]
    c10 = W[1:, :-1]
    c11 = W[1:, 1:]
    cell_mean = 0.25 * (c00 + c01 + c10 + c11)
    tot = float(cell_mean.sum() * dq * dp)
    mins = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
    maxs = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
    peak = np.abs(W).max()
    neg = float((-2.0 * cell_mean[maxs <= 0.0]).sum() * dq * dp)
    # subdivide only genuine sign changes, not tail-level noise
    crossing = (mins < 0.0) & (maxs > 0.0) & (maxs - mins > 1e-13 * peak)
    idx = np.argwhere(crossing)
    if idx.size:
        t = (np.arange(m) + 0.5) / m
        TX = t[None, :, None]
        TY = t[None, None, :]
        i, j = idx[:, 0], idx[:, 1]
        vals = (W[i, j][:, None, None] * (1 - TX) * (1 - TY)
                + W[i, j + 1][:, None, None] * (1 - TX) * TY
                + W[i + 1, j][:, None, None] * TX * (1 - TY)
                + W[i + 1, j + 1][:, None, None] * TX * TY)
        neg += float(-2.0 * np.minimum(vals, 0.0).sum() * dq * dp / (m * m))
    return neg, tot


def _eta_from_gridfield(F: GridField, tol, model, n, lam) -> NegativityRecord:
    """Fixed-sample evaluation with Richardson extrapolation.

    The cell scheme has a clean O(h^2) error dominated by the trapezoid
    boundary-flux term along the nodal set; combining the full grid with a
    2x-coarsened subsample removes it.
    """
    spec = F.spec
    W = F.values.real
    box = (spec.qmin, spec.qmax, spec.pmin, spec.pmax)
    _check_tail(lambda Q, P: _bilinear_lookup(F, Q, P), box, tol)
    neg, tot = _cell_integrals(W, spec.dq, spec.dp)
    if tot == 0.0:
        raise ConvergenceError("integral of W over the grid vanished")
    if spec.nq % 2 == 1 and spec.np % 2 == 1:
        neg2, tot2 = _cell_integrals(W[::2, ::2], 2 * spec.dq, 2 * spec.dp)
        neg_ext = (4.0 * neg - neg2) / 3.0
        tot_ext = (4.0 * tot - tot2) / 3.0
        err = (abs(neg_ext - neg) + abs(tot_ext - tot)) / abs(tot) + 0.05 * tol
        return NegativityRecord(model, n, lam, "grid",
                                float(neg_ext / tot_ext), float(err))
    err = 4.0 * (spec.dq * spec.dp) + 0.1 * tol  # no extrapolation possible
    return NegativityRecord(model, n, lam, "grid", float(neg / tot), float(err))


def _bilinear_lookup(F: GridField, Q, P):
    spec = F.spec
    qi = np.clip((np.asarray(Q) - spec.qmin) / spec.dq, 0, spec.nq - 1.000001)
    pi = np.clip((np.asarray(P) - spec.pmin) / spec.dp, 0, spec.np - 1.000001)
    i0 = qi.astype(int)
    j0 = pi.astype(int)
    tx = qi - i0
    ty = pi - j0
    V = F.values.real
    return (V[i0, j0] * (1 - tx) * (1 - ty) + V[i0, j0 + 1] * (1 - tx) * ty
            + V[i0 + 1, j0] * tx * (1 - ty) + V[i0 + 1, j0 + 1] * tx * ty)


# ---------------------------------------------------------------------------
# damped-model conveniences and sweeps
# ---------------------------------------------------------------------------


def _envelope_radius(mu: float, n: int, c: float, lam: float) -> float:
    """Radius where exp(-mu r^2) times the L_n growth drops below 1e-12."""
    from math import lgamma

    r2 = np.log(1e12) / mu
    if n > 0:
        for _ in range(3):
            y_edge = c * (1.0 + abs(lam)) * r2
            r2 = (np.log(1e12) + max(0.0, n * np.log(max(y_edge, 2.0))
                                     - lgamma(n + 1.0))) / mu
    return float(np.sqrt(r2) * 1.1)


def damped_box(n: int, lam: float) -> tuple:
    """(q, p) box where the damped W_n envelope is below 1e-12 of its peak.

    Derived from the smallest eigenvalue sqrt((1-|lam|)/(1+|lam|)) of the
    exponent quadratic form, with a polynomial-growth allowance.
    """
    mu = np.sqrt((1.0 - abs(lam)) / (1.0 + abs(lam)))
    c = 2.0 / np.sqrt(1.0 - lam ** 2)
    r = _envelope_radius(mu, n, c, lam)
    return (-r, r, -r, r)


def _principal_wigner(dp: DampedParams):
    """The damped W_n as a function of the principal coordinates (s, t).

    With q = (s + t)/sqrt(2) and p = (s - t)/sqrt(2), the Laguerre argument
    is y = alpha s^2 + beta t^2, alpha = 2 sqrt((1 - lam)/(1 + lam)) and
    beta = 2 sqrt((1 + lam)/(1 - lam)), so W = ((-1)^n / pi)
    exp(-alpha s^2 / 2) exp(-beta t^2 / 2) L_n(y).  On the panel layout
    (S of shape (B, 8, 1), T of shape (B, 1, 8)) the squares and the two
    Gaussian factors cost B x 8 values each; y, the Laguerre recurrence
    and two in-place products run on all B x 64 nodes.
    """
    lam = dp.lam
    alpha = 2.0 * np.sqrt((1.0 - lam) / (1.0 + lam))
    beta = 2.0 * np.sqrt((1.0 + lam) / (1.0 - lam))
    front = (-1.0) ** dp.n / np.pi

    def W(S, T):
        aS = alpha * (S * S)
        bT = beta * (T * T)
        vals = laguerre_pair(dp.n, aS + bT)[0]
        vals *= front * np.exp(-0.5 * aS)
        vals *= np.exp(-0.5 * bT)
        return vals

    return W


def eta_grid_damped(n: int, lam: float, tol: float = 1e-4) -> NegativityRecord:
    """eta_grid applied to the damped W_n in the state's principal frame.

    The quadrature runs in the 45-degree frame (s, t) of the state, where
    the squeezed support is an axis-aligned rectangle and W is a Gaussian
    product times L_n(alpha s^2 + beta t^2) (``_principal_wigner``); the
    rotation has unit Jacobian, so eta is unchanged.
    """
    dp = DampedParams(lam, n)
    c = 2.0 / np.sqrt(1.0 - lam ** 2)
    rs = _envelope_radius(0.5 * c * (1.0 - lam), n, c, lam)
    rt = _envelope_radius(0.5 * c * (1.0 + lam), n, c, lam)
    return eta_grid(_principal_wigner(dp), (-rs, rs, -rt, rt), tol,
                    model="damped", n=n, lam=lam)


def negativity_table(n_max: int, lam: float = 0.0,
                     method: str = "radial", tol: float = 1e-4) -> list:
    """Records for n = 0..n_max; eta(n) is strictly increasing."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not abs(lam) < 1.0:
        raise ValueError("|lambda| must be < 1")
    if method not in ("radial", "grid"):
        raise ValueError("method must be 'radial' or 'grid'")
    if method == "radial":
        return [eta_radial(n, lam) for n in range(n_max + 1)]
    return [eta_grid_damped(n, lam, tol) for n in range(n_max + 1)]


def lambda_scan(n: int, lams, tol: float = 1e-3) -> LambdaScanReport:
    """Cross-method test of lambda independence.

    The radial value is lambda-free by construction, so comparing it with
    the grid value at each lambda is a genuine two-route check.
    """
    lams = tuple(float(v) for v in lams)
    if not all(abs(v) < 1.0 for v in lams):
        raise ValueError("all |lambda| must be < 1")
    radial = eta_radial(n)
    # the quadrature tolerance is clamped to a feasible floor; an
    # unreachable scan tolerance then yields an honest failure report
    grid_tol = min(max(tol / 3.0, 1e-6), 1e-3)
    grid = [eta_grid_damped(n, lam, grid_tol) for lam in lams]
    devs = [abs(rec.eta - radial.eta) for rec in grid]
    max_dev = max(devs) if devs else 0.0
    return LambdaScanReport(n=n, tol=tol, radial=radial, grid=tuple(grid),
                            max_deviation=float(max_dev),
                            ok=bool(max_dev <= tol), lams=lams)
