"""The four benchmark workloads: fixed job lists and their independent checks.

A workload is built from a seed and a size table.  Building it is the
benchmark's set-up: it only calls the program's own constructors.  Each job
is one operation: ``run()`` does the work that is timed and returns its
result, and ``check(result)`` returns ``(label, error, tolerance)`` triples
that are computed outside the timed part.  An operation fails when ``run``
raises or any of its checks has ``error > tolerance``.

No check compares against a stored copy of the program's own output.  Truth
comes from closed forms, identities the method must satisfy, a second route
through the program (grid engine, Wigner-transform oracle, radial against
adaptive quadrature) or 40-digit mpmath (``reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import moyal.cli
from moyal import (DampedParams, GridSpec, HeliumParams, PolyGauss, QuadForm,
                   damped_box, damped_energy, damped_hamiltonian,
                   damped_wigner, damped_wigner_values, eigen_residual,
                   grid_distance, harmonic_wigner, harmonic_wigner_values,
                   helium_excite, helium_ground, helium_hamiltonians,
                   helium_wigner, hermite_function, integrate, marginal,
                   moyal_bracket_numeric, oscillator_hamiltonian,
                   oscillator_state, polygauss_star, sample, star_numeric,
                   tapered_sample, wigner_from_wavefunction)
from moyal.formats import read_grid_csv
from moyal.verify import GRID_PURITY_TOL

from reference import damped_w_mp, eta_reference

TWO_PI = 2.0 * math.pi

# Operations that fail on every run because of a fault in the program, not
# of the benchmark: polygauss_star downcasts the extended-precision
# coefficients of these squeezed states (PolyGauss.as_float), so
# 2 pi int W*W is 1.0027 at n = 3 and 2.8e7 at n = 5 instead of 1.  They
# stay in the job list, counted as failed, until the fault is mended.
#
# grid.n10 is the same kind of fault, found while building this benchmark:
# at lambda = +-0.6 and tol 1e-3 the adaptive quadrature of
# `moyal negativity --method grid` stops early at n = 8, with eta 0.034 above
# the radial value and an error estimate of 3.8e-4.  The inputs of that
# operation differ between seeds only in the sign of lambda, which changes
# neither eta nor the panels, so it fails on every run.
KNOWN_FAILURES = frozenset({"purity.damped0.9.n3", "purity.damped0.9.n5",
                            "grid.n10"})

SIZES = {
    "full": {
        "star_degrees": (2, 4, 6), "harmonic_n": 4, "ladder_n": 10,
        "fft": (128, 192, 256), "direct": (48, 64), "grid_purity": 128,
        "bracket": 192, "mp_sample": 40,
        "radial_n_max": 20, "grid_n_max": 10, "scan_n": (1, 2, 3),
        "damped_grid": 301, "helium_grid": 121, "harmonic_grid": 121,
    },
    "tiny": {
        "star_degrees": (2, 3), "harmonic_n": 2, "ladder_n": 3,
        "fft": (96,), "direct": (32,), "grid_purity": 96,
        "bracket": 128, "mp_sample": 12,
        "radial_n_max": 6, "grid_n_max": 3, "scan_n": (1,),
        "damped_grid": 201, "helium_grid": 41, "harmonic_grid": 41,
    },
}


class Job:
    """One operation: a timed ``run`` and an untimed ``check``."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def rel_sup(got, want) -> float:
    """max |got - want| / max |want|."""
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def random_polygauss(rng, degree: int) -> PolyGauss:
    """A decaying Gaussian times a full random complex polynomial."""
    aqq, app = rng.uniform(0.6, 1.4, 2)
    aqp = rng.uniform(-0.25, 0.25)
    lq, lp = rng.uniform(-0.3, 0.3, 2)
    terms = {(a, b): complex(*rng.uniform(-1.0, 1.0, 2))
             for a in range(degree + 1) for b in range(degree + 1 - a)}
    return PolyGauss(terms, QuadForm.from_coeffs(aqq, aqp, app, lq, lp, 0.0))


def _signed(rng, magnitude: float) -> float:
    """+magnitude or -magnitude.  Flipping the sign of lambda mirrors the
    state (q -> -q), which changes neither eta nor the amount of work, so
    seeds vary the inputs without varying the cost."""
    return float(magnitude if rng.integers(2) else -magnitude)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir, size: str = "full"):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.size = SIZES[size]
        self.jobs = []
        self.build()

    def build(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# closed_form: the exact algebra (dict convolutions, Hermite recursions)
# ---------------------------------------------------------------------------


class ClosedForm(Workload):
    name = "closed_form"

    def build(self):
        s, rng = self.size, self.rng
        # pointwise checks use a fixed 12 x 12 lattice and 16 seeded points;
        # the worst round-off over ~160 points varies little between seeds
        lattice = np.linspace(-3.0, 3.0, 12)
        self.pts = np.concatenate([
            np.stack(np.meshgrid(lattice, lattice), -1).reshape(-1, 2),
            rng.uniform(-3.0, 3.0, (16, 2))])
        for deg in s["star_degrees"]:
            f, g = random_polygauss(rng, deg), random_polygauss(rng, deg)
            self.jobs.append(Job(f"star.deg{deg}",
                                 lambda f=f, g=g: polygauss_star(f, g),
                                 lambda h, f=f, g=g: self._trace(h, f, g)))
        triple = [random_polygauss(rng, 2) for _ in range(3)]
        self.jobs.append(Job("star.assoc", lambda t=triple: self._assoc(*t),
                             self._assoc_check))

        states = [(f"harmonic.n{n}", harmonic_wigner(n))
                  for n in range(s["harmonic_n"] + 1)]
        states += [(f"damped0.5.n{n}", damped_wigner(DampedParams(0.5, n)))
                   for n in range(4)]
        states += [(f"damped0.9.n{n}", damped_wigner(DampedParams(0.9, n)))
                   for n in (3, 5)]
        for label, W in states:
            self.jobs.append(Job(f"purity.{label}",
                                 lambda W=W: polygauss_star(W, W),
                                 lambda WW, W=W: self._purity(W, WW)))

        H0 = oscillator_hamiltonian()
        for n in range(s["ladder_n"] + 1):
            self.jobs.append(Job(
                f"ladder.n{n}", lambda n=n: oscillator_state(n),
                lambda psi, n=n: [("H*psi=E psi",
                                   eigen_residual(H0, psi, n + 0.5), 1e-9)]))

        self.helium = HeliumParams(xi=float(rng.uniform(0.05, 0.5)))
        self.jobs.append(Job("helium", self._helium, self._helium_check))

        for lam in (0.0, 0.5, 0.9):
            H = damped_hamiltonian(lam)
            for n in range(4):
                dp = DampedParams(lam, n)
                W, E = damped_wigner(dp), damped_energy(dp)
                self.jobs.append(Job(
                    f"residual.l{lam}.n{n}",
                    lambda H=H, W=W, E=E: eigen_residual(H, W, E),
                    lambda r: [("H*W=E W", r, 1e-9)]))

        W1 = harmonic_wigner(1)
        xs = np.sort(rng.uniform(-4.0, 4.0, 41))
        self.jobs.append(Job(
            "marginal.W1", lambda: marginal(W1, "p"),
            lambda m: [("marginal=phi1^2", float(np.abs(
                m.evaluate(xs).real - hermite_function(1, xs) ** 2).max()),
                1e-10)]))

    def _at(self, f):
        return f.evaluate(self.pts[:, 0], self.pts[:, 1])

    def _trace(self, h, f, g):
        lhs = integrate(h)
        rhs = integrate(f.pointwise_mul(g))
        return [("int f*g = int fg", abs(lhs - rhs) / abs(rhs), 1e-9)]

    @staticmethod
    def _assoc(f, g, h):
        return (polygauss_star(polygauss_star(f, g), h),
                polygauss_star(f, polygauss_star(g, h)))

    def _assoc_check(self, pair):
        return [("(f*g)*h = f*(g*h)", rel_sup(self._at(pair[0]),
                                              self._at(pair[1])), 1e-9)]

    def _purity(self, W, WW):
        return [
            ("W*W = W/2pi", rel_sup(self._at(WW), self._at(W) / TWO_PI), 1e-9),
            ("2pi int W*W = 1", abs(TWO_PI * integrate(WW) - 1.0), 1e-9),
            ("int W = 1", abs(integrate(W) - 1.0), 1e-9),
        ]

    def _helium(self):
        st = helium_excite(helium_ground(self.helium), 1)
        wu, wv = helium_wigner(st)
        return st, wu, wv, polygauss_star(wu, wu), polygauss_star(wv, wv)

    def _helium_check(self, res):
        st, wu, wv, wuu, wvv = res
        p = self.helium
        Hu, Hv = helium_hamiltonians(p)
        out = [
            ("H_u*phi = E phi", eigen_residual(
                Hu, st.u_factor, p.hbar * p.omega_u * 1.5), 1e-9),
            ("H_v*chi = E chi", eigen_residual(
                Hv, st.v_factor, p.hbar * p.omega_v * 1.5), 1e-9),
        ]
        out += self._purity(wu, wuu) + self._purity(wv, wvv)
        return out


# ---------------------------------------------------------------------------
# grid_oracle: FFT, einsum and per-point evaluation of the grid engine
# ---------------------------------------------------------------------------


def _box(half: float, n: int) -> GridSpec:
    return GridSpec(-half, half, -half, half, n, n)


class GridOracle(Workload):
    name = "grid_oracle"

    def build(self):
        s, rng = self.size, self.rng
        self._cache = {}
        f, g = random_polygauss(rng, 2), random_polygauss(rng, 2)
        for N in s["fft"]:
            spec = _box(8.0, N)
            A, B = sample(f, spec), sample(g, spec)
            self.jobs.append(Job(
                f"fft.{N}", lambda A=A, B=B: star_numeric(A, B, "fft"),
                lambda R, f=f, g=g: [("fft = closed form", grid_distance(
                    self._exact(f, g, R.spec), R)[0], 1e-6)]))
        for N in s["direct"]:
            spec = _box(8.0, N)
            A, B = sample(f, spec), sample(g, spec)
            self.jobs.append(Job(
                f"direct.{N}", lambda A=A, B=B: star_numeric(A, B, "direct"),
                lambda R, A=A, B=B: [("direct = fft", rel_sup(
                    star_numeric(A, B, "fft").values, R.values), 1e-10)]))

        lam = _signed(rng, 0.5)
        n = int(rng.integers(3))
        Np = s["grid_purity"]
        Wp = sample(damped_wigner(DampedParams(lam, n)), _box(8.0, Np))
        tol = GRID_PURITY_TOL[Np] if Np in GRID_PURITY_TOL else 1e-4
        self.jobs.append(Job(
            f"purity.{Np}", lambda: star_numeric(Wp, Wp, "fft"),
            lambda R: [("W*W = W/2pi on the grid",
                        rel_sup(R.values, Wp.values / TWO_PI), tol)]))

        bspec = _box(16.0, s["bracket"])
        Wb = damped_wigner(DampedParams(lam, n))
        E = damped_energy(DampedParams(lam, n))
        self.jobs.append(Job(
            f"bracket.{s['bracket']}",
            lambda: self._bracket(bspec, lam, Wb),
            lambda R: self._stationary(R, bspec, Wb, E)))

        nw = int(rng.integers(5))
        wspec = _box(8.0, s["fft"][0])
        self.jobs.append(Job(
            f"wigner_transform.n{nw}",
            lambda: wigner_from_wavefunction(
                lambda x: hermite_function(nw, x), wspec),
            lambda R: [("oracle = closed form", float(np.abs(
                R.values - sample(harmonic_wigner(nw), wspec).values).max()),
                1e-6)]))

        dp = DampedParams(_signed(rng, 0.9), 5)
        Wmp = damped_wigner(dp)
        mspec = _box(10.0, s["mp_sample"])
        self.jobs.append(Job(
            f"sample_mp.{s['mp_sample']}", lambda: sample(Wmp, mspec),
            lambda R: [("mp sample = recurrence", rel_sup(
                R.values, damped_wigner_values(dp, *mspec.meshgrid())), 1e-9)]))

    def _exact(self, f, g, spec):
        key = ("exact", spec.nq)
        if key not in self._cache:
            self._cache[key] = sample(polygauss_star(f, g), spec)
        return self._cache[key]

    @staticmethod
    def _bracket(spec, lam, W):
        H = tapered_sample(lambda Q, P: 0.5 * (Q * Q + P * P) - lam * Q * P,
                           spec, flat_radius=9.0)
        return moyal_bracket_numeric(H, sample(W, spec), method="fft")

    @staticmethod
    def _stationary(R, spec, W, E):
        # H*W = E W for an eigenstate, so E max|W| is the scale of H*W
        scale = E * np.abs(sample(W, spec).values).max()
        return [
            ("sup |{H,W}|", float(np.abs(R.values).max() / scale), 1e-6),
            ("int {H,W}", float(abs(R.values.sum() * spec.dq * spec.dp)
                                / scale), 1e-8),
        ]


# ---------------------------------------------------------------------------
# negativity: scalar root finding and adaptive quadrature, through the CLI
# ---------------------------------------------------------------------------


ETA1 = 4.0 * math.exp(-0.5) - 2.0


def _cli(argv) -> int:
    return moyal.cli.main([str(a) for a in argv])


class Negativity(Workload):
    name = "negativity"

    def build(self):
        s, rng = self.size, self.rng
        self.ref = eta_reference()
        nr = s["radial_n_max"]
        self.radial_path = self.workdir / "radial.json"
        self.jobs.append(Job(
            f"radial.n{nr}",
            lambda: _cli(["negativity", "--n-max", nr, "--check-table1",
                          "--out", self.radial_path]),
            self._radial_check))
        lam = _signed(rng, 0.6)
        ng = s["grid_n_max"]
        gpath = self.workdir / "grid.json"
        self.jobs.append(Job(
            f"grid.n{ng}",
            lambda: _cli(["negativity", "--method", "grid", "--n-max", ng,
                          "--lambda", repr(lam), "--out", gpath]),
            lambda code: self._grid_check(code, gpath)))
        for n in s["scan_n"]:
            lams = [0.0] + [_signed(rng, m) for m in (0.3, 0.6, 0.9)]
            rng.shuffle(lams)
            path = self.workdir / f"scan{n}.json"
            self.jobs.append(Job(
                f"scan.n{n}",
                lambda n=n, lams=lams, path=path: _cli(
                    ["negativity", "--lambda-scan="
                     + ",".join(repr(v) for v in lams), "--n", n,
                     "--out", path]),
                lambda code, n=n, path=path: self._scan_check(code, n, path)))

    def _radial_check(self, code):
        recs = json.loads(self.radial_path.read_text())["records"]
        eta = [r["eta"] for r in recs]
        self.radial = eta
        out = [("exit code", float(code != 0), 0.0),
               ("eta(0) = 0", abs(eta[0]), 1e-15),
               ("eta(1) = 4e^-1/2 - 2", abs(eta[1] - ETA1), 1e-13),
               ("eta increasing", float(not all(
                   b > a for a, b in zip(eta, eta[1:]))), 0.0)]
        out += [(f"eta({n}) = 40-digit", abs(eta[n] - self.ref[n]), 1e-12)
                for n in range(1, len(eta))]
        return out

    def _grid_check(self, code, path):
        recs = json.loads(Path(path).read_text())["records"]
        out = [("exit code", float(code != 0), 0.0)]
        # the radial job runs first in every pass; its values are the
        # other route
        out += [(f"grid eta({r['n']}) = radial", abs(
            r["eta"] - self.radial[r["n"]]), r["err_estimate"]) for r in recs]
        return out

    def _scan_check(self, code, n, path):
        doc = json.loads(Path(path).read_text())
        out = [("exit code", float(code != 0), 0.0),
               ("radial = 40-digit", abs(doc["radial_eta"] - self.ref[n]),
                1e-12)]
        out += [(f"grid eta(lambda={lam}) = 40-digit", abs(e - self.ref[n]),
                 doc["tol"]) for lam, e in zip(doc["lambdas"], doc["grid_etas"])]
        return out


# ---------------------------------------------------------------------------
# export: CSV formatting and parsing, through the CLI
# ---------------------------------------------------------------------------


def _spec_args(box, n):
    qmin, qmax, pmin, pmax = (repr(float(v)) for v in box)
    return ["--qmin", qmin, "--qmax", qmax, "--pmin", pmin, "--pmax", pmax,
            "--nq", n, "--np", n]


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Export(Workload):
    name = "export"

    def build(self):
        s, rng = self.size, self.rng
        d = self.workdir
        self.digests = {}
        self.mp_errors = {}
        # grid nodes checked against 40-digit values, as fractions of the
        # axes: a fixed 20 x 20 lattice and 16 seeded nodes.  The worst of
        # ~400 round-off errors varies less between seeds than that of a few.
        lattice = (np.arange(20) + 0.5) / 20.0
        self.fractions = np.concatenate([
            np.stack(np.meshgrid(lattice, lattice), -1).reshape(-1, 2),
            rng.uniform(0.0, 1.0, (16, 2))])
        lam = _signed(rng, 0.9)
        xi = float(rng.uniform(0.05, 0.5))
        nh = int(rng.integers(7))
        helium = HeliumParams(xi=xi)
        om_u, om_v = helium.omega_u, helium.omega_v
        dp = DampedParams(lam, 10)
        hbox = (-6.0, 6.0, -6.0, 6.0)
        # name: (argv, [(csv file, W(Q, P) as the CLI computes it, n,
        #               W(q, p) at 40 digits, check the box integral)])
        exports = {
            "damped": (
                ["wigner", "--model", "damped", "--n", 10, "--lambda",
                 repr(lam)] + _spec_args(damped_box(10, 0.9), s["damped_grid"]),
                [("damped.csv", lambda Q, P: damped_wigner_values(dp, Q, P),
                  10, lambda q, p: damped_w_mp(10, lam, q, p), True)]),
            "helium": (
                ["wigner", "--model", "helium", "--nu", 2, "--nv", 1,
                 "--xi", repr(xi)] + _spec_args(hbox, s["helium_grid"]),
                [(f"hel_{sec}.csv",
                  lambda Q, P, k=k, om=om: harmonic_wigner_values(
                      k, Q, P, 1.0, om),
                  k, lambda q, p, k=k, om=om: damped_w_mp(
                      k, 0.0, q * math.sqrt(om), p / math.sqrt(om)), False)
                 for sec, k, om in (("u", 2, om_u), ("v", 1, om_v))]),
            "harmonic": (
                ["wigner", "--model", "harmonic", "--n", nh]
                + _spec_args(hbox, s["harmonic_grid"]),
                [("harmonic.csv", lambda Q, P: harmonic_wigner_values(nh, Q, P),
                  nh, lambda q, p: damped_w_mp(nh, 0.0, q, p), False)]),
        }
        for name, (argv, files) in exports.items():
            out = "hel.csv" if name == "helium" else files[0][0]
            names = [f[0] for f in files]
            self.jobs.append(Job(
                f"write.{name}",
                lambda argv=argv, out=out: _cli(argv + ["--out", d / out]),
                lambda code, argv=argv, out=out, names=names:
                    self._write_check(code, argv, out, names)))
        for _, files in exports.values():
            for fname, values, n, w_mp, integ in files:
                self.jobs.append(Job(
                    f"read.{fname[:-4]}", lambda p=d / fname: read_grid_csv(p),
                    lambda res, a=(values, n, w_mp, integ):
                        self._read_check(res, *a)))

    def _write_check(self, code, argv, out, names):
        checks = [("exit code", float(code != 0), 0.0)]
        if names[0] not in self.digests:
            # first pass: a second write of the same command must give the
            # same bytes
            again = self.workdir / "again"
            again.mkdir(exist_ok=True)
            code2 = _cli(argv + ["--out", again / out])
            checks.append(("second write exit code", float(code2 != 0), 0.0))
            for name in names:
                self.digests[name] = _digest(again / name)
        for name in names:
            checks.append((f"{name} bytes = first write", float(
                _digest(self.workdir / name) != self.digests[name]), 0.0))
        return checks

    def _read_check(self, res, values, n, w_mp, integrate_box):
        field, _ = res
        spec = field.spec
        want = np.asarray(values(*spec.meshgrid()), dtype=complex)
        W = field.values.real
        # the 40-digit comparison depends only on the values read, so it is
        # made once per distinct field and reused by later passes
        key = hashlib.sha256(W.tobytes()).hexdigest()
        if key not in self.mp_errors:
            nodes = (self.fractions * [spec.nq - 1, spec.np - 1]).round()
            self.mp_errors[key] = max(
                abs(W[i, j] - w_mp(spec.qs[i], spec.ps[j]))
                for i, j in nodes.astype(int)) / np.abs(W).max()
        checks = [
            ("read-back bitwise", float(not np.array_equal(field.values, want)),
             0.0),
            ("pi W(0,0) = (-1)^n",
             abs(math.pi * W[spec.nq // 2, spec.np // 2] - (-1.0) ** n), 1e-12),
            ("W = 40-digit", self.mp_errors[key], 1e-12),
        ]
        if integrate_box:
            # the grid error is estimated from the 2h subgrid
            t_h = _trapezoid(W, spec.dq, spec.dp)
            t_2h = _trapezoid(W[::2, ::2], 2 * spec.dq, 2 * spec.dp)
            checks.append(("trapezoid int W = 1", abs(t_h - 1.0),
                           max(abs(t_h - t_2h), 1e-12)))
        return checks


def _trapezoid(W, dq, dp) -> float:
    wq = np.full(W.shape[0], dq)
    wq[[0, -1]] *= 0.5
    wp = np.full(W.shape[1], dp)
    wp[[0, -1]] *= 0.5
    return float(wq @ W @ wp)


WORKLOADS = {w.name: w for w in (ClosedForm, GridOracle, Negativity, Export)}
