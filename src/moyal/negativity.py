"""Non-classicality indicator eta = int |W| - 1 for stationary states.

Two deliberately independent routes:

* eta_radial: after the 45-degree rotation and axis rescaling that
  diagonalize y(q, p), the damped Wigner function W_n depends on the single
  variable y and the Jacobian is 1/2 independently of the dissipation
  parameter, so

      eta(n) = (1/2) int_0^inf exp(-y/2) |L_n(y)| dy - 1,

  a 1D integral evaluated between the roots of L_n (Gauss-Laguerre nodes
  from the Golub-Welsch eigenvalue problem, polished by one Newton step)
  with per-interval Gauss-Legendre panels; the tail beyond the last root uses
  the exact total int_0^inf exp(-y/2) L_n(y) dy = 2 (-1)^n.

* eta_grid: adaptive 2D panel quadrature of (|W| - W) over a box, with
  embedded error estimates from one level of panel refinement.  The
  normalization is re-imposed internally (eta = int(|W| - W) / int W), so
  a rescaled input yields the same indicator.  The greedy refinement
  order (worst panel first, ties by insertion) is replayed exactly in
  batches: one call of the integrand evaluates the children of the
  popped panel and of up to seven more unrefined panels at the top of the
  heap (those the loop would still reach if no refinement added error),
  and the cached results are used as their panels are popped, so
  the estimate is bitwise that of refining one panel per call.  Each call
  gets the GL8 nodes of its boxes as Q of shape (B, 8, 1) and P of shape
  (B, 1, 8), and both panel sums contract the values with one table of
  the 64 product weights.

* eta_grid_damped: eta_grid on the damped W_n in its principal frame
  (s, t), the 45-degree rotation of (q, p).  There the support is an
  axis-aligned rectangle and W_n = ((-1)^n / pi) exp(-alpha s^2 / 2)
  exp(-beta t^2 / 2) L_n(alpha s^2 + beta t^2), so the squares and the
  Gaussian factors are formed once per node row and column; the sum y,
  the Laguerre recurrence and two products run on every node.

The sequence eta(n) is strictly increasing and lambda-free; the reference
values below anchor n = 0..9.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxTooSmallError, ConvergenceError
from .grid import GridField
from .models import DampedParams, laguerre_pair

# Reference eta(n) for the damped oscillator, n = 0..9 (lambda-independent);
# the acceptance anchor for the radial method at 1e-8 absolute.
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
    """All n roots of L_n, ascending: Gauss-Laguerre nodes, one Newton step.

    The nodes of the n-point Gauss-Laguerre rule are the roots of L_n: the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    three-term recurrence (Golub & Welsch, Math. Comp. 23, 221 (1969)),
    then one Newton step on the Laguerre series, as numpy's laggauss takes
    them.  A second vectorized Newton step through the recurrence, with
    y L_n' = n (L_n - L_{n-1}), polishes them to full double precision.
    """
    if n == 0:
        return np.empty(0)
    # laggauss's nodes without its weights, which divide by zero from n = 187
    lag = np.polynomial.laguerre
    c = np.zeros(n + 1)
    c[n] = 1.0
    nodes = np.linalg.eigvalsh(lag.lagcompanion(c))
    nodes -= lag.lagval(nodes, c) / lag.lagval(nodes, lag.lagder(c))
    Ln, Lnm1 = laguerre_pair(n, nodes)
    roots = nodes - nodes * Ln / (n * (Ln - Lnm1))
    if not (roots[0] > 0.0 and np.all(np.diff(roots) > 0.0)):
        raise ConvergenceError(
            f"Laguerre roots not positive and increasing (n={n})")
    return roots


_GL32 = np.polynomial.legendre.leggauss(32)
_GL64 = np.polynomial.legendre.leggauss(64)


def _signed_interval_integrals(n: int, edges: np.ndarray, rule):
    """int exp(-y/2) L_n(y) dy on each [edges[i], edges[i+1]]."""
    nodes, weights = rule
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    rad = 0.5 * (hi - lo)[:, None]
    y = mid + rad * nodes[None, :]
    Ln, _ = laguerre_pair(n, y)
    vals = np.exp(-0.5 * y) * Ln
    return (vals * weights[None, :] * rad).sum(axis=1)


def eta_radial(n: int, lam: float = 0.0) -> NegativityRecord:
    """eta(n) by the 1D radial route; exactly lambda-free by construction."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return NegativityRecord("damped", 0, lam, "radial", 0.0, 0.0)
    roots = laguerre_roots(n)
    edges = np.concatenate([[0.0], roots])
    parts64 = _signed_interval_integrals(n, edges, _GL64)
    parts32 = _signed_interval_integrals(n, edges, _GL32)
    quad_err = float(np.abs(parts64 - parts32).sum())
    # |L_n| alternates sign starting positive at y=0
    absolute = np.abs(parts64).sum()
    # tail beyond the last root from the exact full-line total 2 (-1)^n
    tail = 2.0 * (-1.0) ** n - parts64.sum()
    absolute += abs(tail)
    eta = float(0.5 * absolute - 1.0)
    err = 0.5 * (quad_err + 1e-14 * (1.0 + abs(eta)))
    return NegativityRecord("damped", n, lam, "radial", eta, float(err))


# ---------------------------------------------------------------------------
# grid method (adaptive 2D panels)
# ---------------------------------------------------------------------------

_GL8 = np.polynomial.legendre.leggauss(8)
# the 64 weights w_i w_j of the GL8 x GL8 product rule, row by row
_W64 = np.outer(_GL8[1], _GL8[1]).ravel()
_MAX_PANELS = 60_000
# panels refined per func call: the popped panel plus the next unrefined
# ones at the top of the heap (8 boxes x 16 x 64 nodes = 8192 points)
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


def _unrefined_top(heap, refined, k, room):
    """Up to k heap entries, best first, whose children are not yet known.

    room is the error the pops may still remove before the loop stops; an
    entry is taken only while the errors of the entries above it leave
    some, so panels the loop is likely to stop short of are not evaluated.
    Entries are popped to look and pushed back; their keys are unique, so
    the order of later pops is unchanged.
    """
    seen, picks = [], []
    while heap and len(picks) < k:
        entry = heapq.heappop(heap)
        seen.append(entry)
        if entry[1] not in refined:
            if room <= 0.0:
                break
            picks.append(entry)
        room += entry[0]
    for entry in seen:
        heapq.heappush(heap, entry)
    return picks


def _adaptive_eta(func, box, tol):
    """Globally adaptive quadrature: always refine the worst panel.

    Returns (int(|W|-W), int W, error estimate).  The panel with the
    largest |refined - coarse| is refined next, ties broken by insertion
    order, and the totals are accumulated in pop order.  The refinement is
    replayed in batches: when the popped panel's children are not known,
    one func call evaluates them together with the children of the next
    unrefined panels at the top of the heap, up to _BATCH panels and only
    while their errors leave the loop running; the others are cached
    until popped.  For a func that acts point by point, a panel's sums do
    not depend on the batch it is evaluated in, so the pops, pushes and
    totals are exactly those of one refinement per call.
    """
    root_box = np.array([box], dtype=float)
    neg, tot = _eval_panels(func, np.vstack([root_box, _quarters(root_box)]))
    root = _panels(root_box, [neg[0]], neg[1:], tot[1:])[0]
    counter = 0
    heap = [(-root[3], counter, root)]
    refined = {}
    _, total_neg, total_tot, total_err, _ = root
    n_panels = 1
    while total_err > 0.4 * tol and heap:
        entry = heapq.heappop(heap)
        if n_panels > _MAX_PANELS:
            raise ConvergenceError("adaptive quadrature exceeded panel budget")
        _, key, (_, neg, tot, err, _) = entry
        total_neg -= neg
        total_tot -= tot
        total_err -= err
        children = refined.pop(key, None)
        if children is None:
            batch = [entry] + _unrefined_top(heap, refined, _BATCH - 1,
                                             total_err - 0.4 * tol)
            kids = _refine(func, [e[2] for e in batch])
            refined.update((e[1], k) for e, k in zip(batch[1:], kids[1:]))
            children = kids[0]
        n_panels += 3
        for child in children:
            counter += 1
            heapq.heappush(heap, (-child[3], counter, child))
            total_neg += child[1]
            total_tot += child[2]
            total_err += child[3]
    return total_neg, total_tot, total_err


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
    if any(abs(v) >= 1.0 for v in lams):
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
