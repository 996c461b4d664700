import numpy as np
import pytest

from moyal import (GridMismatchError, ParameterMismatchError, PolyGauss,
                   QuadForm, grid, polygauss_star)
from moyal.grid import (FFT_ROW_FLOOR, GridField, GridSpec, _forward,
                        _gauss_legendre, _live_rows, grid_distance,
                        moyal_bracket_numeric, sample, star_numeric,
                        tapered_sample, wigner_from_wavefunction)
from moyal.models import (DampedParams, damped_quasiamplitude, damped_wigner,
                          hermite_function)
from oracles import (moyal_bracket_two_sums, star_numeric_fft_unpruned,
                     star_numeric_loops)

SPEC = GridSpec(-8.0, 8.0, -8.0, 8.0, 128, 128)
W0 = PolyGauss.gaussian(QuadForm(np.eye(2)), 1.0, coeff=1.0 / np.pi)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, -1.0, 1.0, 16, 16)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 16)
    s = GridSpec(-6.0, 6.0, -6.0, 6.0, 201, 201)
    assert s.dq == pytest.approx(0.06)
    assert s.qs[100] == pytest.approx(0.0)


def test_sample_constant_and_peak():
    ones = sample(lambda Q, P: np.ones_like(Q), SPEC)
    assert np.all(ones.values == 1.0)
    spec6 = GridSpec(-6.0, 6.0, -6.0, 6.0, 128, 128)
    f = sample(W0, spec6)
    peak = np.abs(f.values).max()
    assert peak == pytest.approx(
        W0.evaluate(spec6.qs[63], spec6.ps[63]).real, abs=1e-15)
    assert peak <= 1.0 / np.pi + 1e-15


def test_sample_squeezed_diagonal_elongation():
    # strongly damped state stretches along the q = p diagonal
    from moyal.models import damped_wigner_values

    spec = GridSpec(-6.0, 6.0, -6.0, 6.0, 201, 201)
    dp = DampedParams(0.9, 5)
    f = GridField(spec, damped_wigner_values(dp, *spec.meshgrid()))
    i_plus = np.argmin(np.abs(spec.qs - 3.0))
    assert abs(f.values[i_plus, i_plus]) > 100 * abs(f.values[i_plus, 200 - i_plus])


def test_star_numeric_purity():
    A = sample(W0, SPEC)
    out = star_numeric(A, A)
    ref = A.values / (2.0 * np.pi)
    assert np.abs(out.values - ref).max() / np.abs(ref).max() < 1e-4
    assert out.warnings == ()


def test_star_numeric_unit_field():
    A = sample(W0, SPEC)
    one = sample(lambda Q, P: np.ones_like(Q), SPEC)
    out = star_numeric(A, one)
    assert np.abs(out.values - A.values).max() < 1e-10
    assert any("right operand" in w for w in out.warnings)


def test_star_numeric_canonical_commutator():
    # [q, p]_star = i hbar on tapered symbol fields; the flat region must
    # stay well clear of the periodic wrap (both operands grow)
    spec = GridSpec(-12.0, 12.0, -12.0, 12.0, 128, 128)
    qf = tapered_sample(lambda Q, P: Q, spec, flat_radius=6.0)
    pf = tapered_sample(lambda Q, P: P, spec, flat_radius=6.0)
    br = moyal_bracket_numeric(qf, pf, method="fft")
    inner = (np.abs(spec.qs) <= 2.0)[:, None] & (np.abs(spec.ps) <= 2.0)[None, :]
    assert np.abs(br.values[inner] - 1j).max() < 1e-6


def test_star_numeric_guards():
    other = GridSpec(-8.0, 8.0, -8.0, 8.0, 128, 64)
    A = sample(W0, SPEC)
    with pytest.raises(GridMismatchError):
        star_numeric(A, sample(W0, other))
    B = GridField(SPEC, A.values, hbar=2.0)
    with pytest.raises(ParameterMismatchError):
        star_numeric(A, B)
    with pytest.raises(ValueError):
        star_numeric(A, A, method="magic")


def test_fft_matches_direct_baseline(rng):
    terms = {(1, 0): 1.0, (0, 2): -0.4j, (0, 0): 0.3}
    f = PolyGauss(terms, QuadForm.from_coeffs(0.9, 0.1, 1.1, 0.1, 0.0, 0.0), 1.0)
    g = PolyGauss({(2, 0): 0.5, (0, 0): 1.0},
                  QuadForm.from_coeffs(1.2, -0.05, 0.8), 1.0)
    A, B = sample(f, SPEC), sample(g, SPEC)
    direct = star_numeric(A, B, method="direct")
    fast = star_numeric(A, B, method="fft")
    scale = np.abs(direct.values).max()
    assert np.abs(direct.values - fast.values).max() <= 1e-10 * scale


def _complex_operands(spec, hbar):
    Q, P = spec.meshgrid()
    a = np.exp(-(Q - 0.4) ** 2 - 0.7 * (P + 0.3) ** 2) * (1.0 + 0.5j * Q - P * Q)
    b = np.exp(-0.8 * Q * Q - 1.3 * (P - 0.2) ** 2 + 0.3j * Q) * (0.5 - 1j * P)
    return GridField(spec, a, hbar), GridField(spec, b, hbar)


@pytest.mark.parametrize("spec, hbar", [
    (GridSpec(-5.0, 7.0, -4.0, 6.0, 40, 24), 0.7),    # nq > np
    (GridSpec(-6.5, 5.0, -5.5, 7.5, 20, 36), 1.3),    # nq < np
    (GridSpec(-7.0, 9.0, -8.0, 8.0, 33, 32), 0.7),    # odd nq
])
@pytest.mark.parametrize("method", ["direct", "fft"])
def test_star_numeric_matches_loop_oracle(spec, hbar, method):
    A, B = _complex_operands(spec, hbar)
    out = star_numeric(A, B, method=method)
    ref = star_numeric_loops(A, B, method)
    assert np.abs(out.values - ref).max() <= 1e-13 * np.abs(ref).max()


def _count_fft_rows(monkeypatch):
    """Count the rows handed to np.fft.fft (the grid engine's 1D transforms)."""
    rows = []
    fft = np.fft.fft

    def counting_fft(x, *args, **kwargs):
        rows.append(np.shape(x)[0])
        return fft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    return rows


def _band_limited_pair(spec):
    g = PolyGauss.gaussian(QuadForm.from_coeffs(1.3, 0.2, 0.9, 0.4, -0.3, 0.0),
                           1.0, coeff=0.4)
    return sample(W0, spec), sample(g, spec)


def test_fft_pruning_skips_rows_within_the_floor_bound(monkeypatch):
    A, B = _band_limited_pair(SPEC)
    Fh, Gh = _forward(A)[0], _forward(B)[0]
    assert _live_rows(Fh).mean() <= 0.6 and _live_rows(Gh).mean() <= 0.6
    ref = star_numeric_fft_unpruned(A, B)
    rows = _count_fft_rows(monkeypatch)
    out = star_numeric(A, B, method="fft").values
    # one batch for GhF plus one per output row that keeps a pair; the
    # unpruned loop hands nq + nq * nq rows to np.fft.fft
    assert sum(rows) <= 0.4 * (SPEC.nq + SPEC.nq ** 2)
    err = np.abs(out - ref).max()
    assert err <= 1e-13 * np.abs(ref).max()
    fmax, gmax = np.abs(Fh).max(), np.abs(Gh).max()
    s_bound = FFT_ROW_FLOOR * (fmax * np.abs(Gh).sum() + gmax * np.abs(Fh).sum())
    # |ifft2(dS * off)| <= max|dS|, then the star_numeric normalisation
    assert err <= s_bound / (SPEC.nq * SPEC.np * SPEC.dq ** 2 * SPEC.dp ** 2)


def test_fft_without_skipped_rows_is_bitwise_unpruned(monkeypatch, rng):
    spec = GridSpec(-5.0, 7.0, -4.0, 6.0, 40, 24)
    A, B = (GridField(spec, rng.randn(40, 24) + 1j * rng.randn(40, 24), 0.7)
            for _ in range(2))
    assert _live_rows(_forward(A)[0]).all() and _live_rows(_forward(B)[0]).all()
    ref = star_numeric_fft_unpruned(A, B)
    rows = _count_fft_rows(monkeypatch)
    out = star_numeric(A, B, method="fft").values
    assert sum(rows) == spec.nq + spec.nq ** 2
    assert out.tobytes() == ref.tobytes()


def test_fft_zero_operand_gives_zero():
    A = sample(W0, SPEC)
    zero = GridField(SPEC, np.zeros((SPEC.nq, SPEC.np)))
    assert not star_numeric(A, zero, method="fft").values.any()
    assert not star_numeric(zero, A, method="fft").values.any()


def test_fft_pruned_mixed_pair_matches_direct():
    # the tapered Hamiltonian keeps every row, the Gaussian about half
    H = tapered_sample(lambda Q, P: 0.5 * (Q * Q + P * P), SPEC, flat_radius=4.0)
    W = sample(W0, SPEC)
    assert _live_rows(_forward(W)[0]).mean() <= 0.6
    for left, right in ((H, W), (W, H)):
        direct = star_numeric(left, right, method="direct").values
        fast = star_numeric(left, right, method="fft").values
        assert np.abs(direct - fast).max() <= 1e-10 * np.abs(direct).max()


def _bracket_pair(n):
    spec = GridSpec(-8.0, 8.0, -8.0, 8.0, n, n)
    H = tapered_sample(lambda Q, P: 0.5 * (Q * Q + P * P), spec, flat_radius=4.0)
    return sample(W0, spec), H


@pytest.mark.parametrize("method, n", [("fft", 128), ("direct", 40)])
def test_moyal_bracket_is_bitwise_two_products(method, n):
    # real operands: B*A is taken as the conjugate of the one product A*B
    W, H = _bracket_pair(n)
    br = moyal_bracket_numeric(W, H, method=method)
    ab = star_numeric(W, H, method=method)
    ba = star_numeric(H, W, method=method)
    assert br.values.tobytes() == (ab.values - ab.values.conj()).tobytes()
    assert br.warnings == tuple(dict.fromkeys(ab.warnings + ba.warnings))
    assert br.warnings == ("right operand does not decay at the box boundary",
                           "left operand does not decay at the box boundary")


@pytest.mark.parametrize("kind", ["complex", "1e-300j-left", "1e-300j-right"])
@pytest.mark.parametrize("method", ["direct", "fft"])
def test_moyal_bracket_of_complex_fields_is_bitwise_two_products(method, kind):
    spec = GridSpec(-5.0, 7.0, -4.0, 6.0, 40, 24)
    A, B = _complex_operands(spec, 0.7)
    if kind != "complex":
        # real fields but one entry 1e-300j on one side
        a, b = A.values.real.astype(complex), B.values.real.astype(complex)
        (a if kind == "1e-300j-left" else b)[17, 9] += 1e-300j
        A, B = GridField(spec, a, 0.7), GridField(spec, b, 0.7)
    br = moyal_bracket_numeric(A, B, method=method)
    ab = star_numeric(A, B, method=method)
    ba = star_numeric(B, A, method=method)
    assert br.values.tobytes() == (ab.values - ba.values).tobytes()
    assert br.warnings == tuple(dict.fromkeys(ab.warnings + ba.warnings))


def _damped_pair(spec, h_lam, w_lam, n, flat_radius):
    """Tapered damped Hamiltonian (h_lam) and the damped state (w_lam, n)."""
    H = tapered_sample(lambda Q, P: 0.5 * (Q * Q + P * P) - h_lam * Q * P,
                       spec, flat_radius=flat_radius)
    return H, sample(damped_wigner(DampedParams(w_lam, n)), spec)


def _off_centre_pair():
    spec = GridSpec(-14.0, 18.0, -15.0, 17.0, 192, 176)
    Q, P = spec.meshgrid()
    H = tapered_sample(lambda Q, P: 0.5 * (Q * Q + P * P) + 0.3 * Q, spec,
                       flat_radius=6.0, hbar=0.7)
    W = np.exp(-((Q - 1.0) ** 2 + 1.3 * (P - 0.5) ** 2) / 0.7) * (1.0 - Q * P)
    return H, GridField(spec, W, 0.7)


@pytest.mark.parametrize("pair", [
    lambda: _damped_pair(GridSpec(-12.0, 12.0, -12.0, 12.0, 128, 128), 0.5, 0.0, 2, 6.0),
    lambda: _damped_pair(GridSpec(-16.0, 16.0, -16.0, 16.0, 191, 191), 0.5, 0.0, 2, 9.0),
    lambda: _damped_pair(GridSpec(-16.0, 16.0, -16.0, 16.0, 192, 192), 0.5, 0.0, 2, 9.0),
    _off_centre_pair,
], ids=["128-pm12", "191-pm16", "192-pm16", "off-centre-hbar0.7"])
def test_moyal_bracket_of_real_fields_matches_two_sums(pair):
    # H at lam = 0.5 against a lam = 0 state: the bracket is of order H*W
    H, W = pair()
    br = moyal_bracket_numeric(H, W, method="fft").values
    ref = moyal_bracket_two_sums(H, W, method="fft").values
    scale = np.abs(star_numeric(H, W, method="fft").values).max()
    assert np.abs(br - ref).max() <= 1e-13 * scale
    assert not br.real.any()


@pytest.mark.parametrize("n, half, flat_radius", [
    (40, 8.0, 4.0), (41, 8.0, 4.0), (64, 8.0, 4.0), (128, 12.0, 6.0),
    (192, 16.0, 9.0),
])
def test_moyal_bracket_error_stays_within_two_sum_error(n, half, flat_radius):
    # against exact brackets: {H, W} = 0 for the stationary damped states
    # (worst over lam and n), [q, p] = i on the flat inner square
    spec = GridSpec(-half, half, -half, half, n, n)
    err, ref_err = 0.0, 0.0
    for lam in (0.0, 0.5):
        for k in range(3):
            H, W = _damped_pair(spec, lam, lam, k, flat_radius)
            peak = np.abs(W.values).max()
            br = moyal_bracket_numeric(H, W, method="fft").values
            ref = moyal_bracket_two_sums(H, W, method="fft").values
            err = max(err, np.abs(br).max() / peak)
            ref_err = max(ref_err, np.abs(ref).max() / peak)
    assert err <= 1.5 * ref_err
    qf = tapered_sample(lambda Q, P: Q, spec, flat_radius=flat_radius)
    pf = tapered_sample(lambda Q, P: P, spec, flat_radius=flat_radius)
    inner = (np.abs(spec.qs) <= 2.0)[:, None] & (np.abs(spec.ps) <= 2.0)[None, :]
    err = np.abs(moyal_bracket_numeric(qf, pf, method="fft").values[inner] - 1j).max()
    ref_err = np.abs(moyal_bracket_two_sums(qf, pf, method="fft").values[inner] - 1j).max()
    assert err <= 1.5 * ref_err


@pytest.mark.parametrize("kind, sums", [
    ("real", 1), ("real-swapped", 1), ("complex", 2), ("identical", 0),
])
def test_moyal_bracket_twisted_sum_count(monkeypatch, kind, sums):
    W, H = _bracket_pair(40)
    A, B = {"real": (W, H), "real-swapped": (H, W), "identical": (H, H),
            "complex": _complex_operands(W.spec, 1.0)}[kind]
    ref = moyal_bracket_two_sums(A, B, method="fft")
    calls = []
    twisted_sum = grid._twisted_sum

    def counting_twisted_sum(*args):
        calls.append(args)
        return twisted_sum(*args)

    monkeypatch.setattr(grid, "_twisted_sum", counting_twisted_sum)
    br = moyal_bracket_numeric(A, B, method="fft")
    assert len(calls) == sums
    assert br.warnings == ref.warnings
    if kind == "identical":
        assert not br.values.any()


def test_star_numeric_direct_is_deterministic():
    A, B = _complex_operands(GridSpec(-5.0, 7.0, -4.0, 6.0, 40, 24), 0.7)
    first = star_numeric(A, B, method="direct").values
    assert first.tobytes() == star_numeric(A, B, method="direct").values.tobytes()


def test_moyal_bracket_antisymmetry_and_stationarity():
    A = sample(damped_wigner(DampedParams(0.5, 2)), SPEC)
    self_bracket = moyal_bracket_numeric(A, A, method="fft")
    assert np.abs(self_bracket.values).max() == 0.0

    spec = GridSpec(-16.0, 16.0, -16.0, 16.0, 192, 192)
    H = tapered_sample(lambda Q, P: 0.5 * (Q * Q + P * P) - 0.5 * Q * P,
                       spec, flat_radius=9.0)
    Wf = sample(damped_wigner(DampedParams(0.5, 2)), spec)
    br = moyal_bracket_numeric(H, Wf, method="fft")
    hw = star_numeric(H, Wf, method="fft")
    scale = np.abs(hw.values).max()
    assert np.abs(br.values).max() / scale < 1e-6
    assert abs(br.values.sum() * spec.dq * spec.dp) / scale < 1e-8


def test_discrete_trace_property():
    # displaced Gaussian against a damped state: nonzero overlap
    g_shift = PolyGauss.gaussian(
        QuadForm.from_coeffs(1.0, 0.0, 1.0, -1.0, 0.6, 0.0), 1.0, coeff=1 / np.pi)
    f = sample(damped_wigner(DampedParams(0.1, 1)), SPEC)
    g = sample(g_shift, SPEC)
    st = star_numeric(f, g, method="fft")
    lhs = st.values.sum() * SPEC.dq * SPEC.dp
    rhs = (f.values * g.values).sum() * SPEC.dq * SPEC.dp
    assert abs(rhs) > 1e-4
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_wigner_transform_ground_state():
    out = wigner_from_wavefunction(lambda x: hermite_function(0, x), SPEC)
    ref = sample(W0, SPEC)
    assert np.abs(out.values - ref.values).max() < 1e-8
    total = out.values.real.sum() * SPEC.dq * SPEC.dp
    assert total == pytest.approx(1.0, abs=1e-6)
    assert out.warnings == ()


def test_wigner_transform_first_excited_origin():
    spec = GridSpec(-6.0, 6.0, -6.0, 6.0, 129, 129)
    out = wigner_from_wavefunction(lambda x: hermite_function(1, x), spec)
    origin = out.values[64, 64].real
    assert origin == pytest.approx(-1.0 / np.pi, abs=1e-8)


def test_wigner_transform_odd_parity_negative_origin():
    phi = lambda x: x * np.exp(-x * x)  # odd, not normalized
    spec = GridSpec(-6.0, 6.0, -6.0, 6.0, 65, 65)
    out = wigner_from_wavefunction(phi, spec)
    assert out.values[32, 32].real < 0.0
    assert any("norm" in w for w in out.warnings)


def test_wigner_transform_marginal_consistency():
    out = wigner_from_wavefunction(lambda x: hermite_function(2, x), SPEC)
    marg = out.values.real.sum(axis=1) * SPEC.dp
    ref = hermite_function(2, SPEC.qs) ** 2
    assert np.abs(marg - ref).max() < 1e-6


def test_gauss_legendre_rule_is_cached_read_only():
    nodes, weights = _gauss_legendre(96)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(96)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    assert _gauss_legendre(96)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_wigner_transform_divergent_support():
    with pytest.raises(ValueError):
        wigner_from_wavefunction(lambda x: np.ones_like(x), SPEC,
                                 support=float("inf"))


def test_grid_distance_basics():
    A = sample(W0, SPEC)
    assert grid_distance(A, A) == (0.0, 0.0)
    B = GridField(SPEC, 1.01 * A.values)
    sup, l2 = grid_distance(A, B)
    assert sup == pytest.approx(0.01, abs=1e-12)
    assert l2 == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(GridMismatchError):
        grid_distance(A, sample(W0, GridSpec(-8, 8, -8, 8, 64, 64)))


def test_cross_engine_damped_w3():
    dp = DampedParams(0.1, 3)
    psi = damped_quasiamplitude(dp)
    closed = sample(damped_wigner(dp), SPEC)
    viastar = sample(polygauss_star(psi, psi.conjugate()), SPEC)
    sup, _ = grid_distance(closed, viastar)
    assert sup <= 1e-6


def test_gridfield_rejects_bad_values():
    with pytest.raises(ValueError):
        GridField(SPEC, np.zeros((4, 4)))
    bad = np.zeros((128, 128))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        GridField(SPEC, bad)
