"""40-digit references that do not go through the program.

``eta_reference.json`` holds eta(n) = (1/2) int_0^inf e^(-y/2) |L_n(y)| dy - 1
for n = 0..NMAX.  The roots of L_n come from mpmath's polynomial solver and
each piece of the integral from the exact antiderivative

    int e^(-y/2) P(y) dy = -2 e^(-y/2) sum_k 2^k P^(k)(y),

so neither the program's Newton walk nor its Gauss-Legendre panels are
involved.  Regenerate the file with

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
from mpmath import mp, mpf

NMAX = 24
DPS = 40
PATH = Path(__file__).with_name("eta_reference.json")


def _laguerre_coeffs(n: int):
    """Ascending monomial coefficients of L_n, exact rationals as mpf."""
    c = [mpf(1)]
    for k in range(n):
        c.append(c[-1] * (-(n - k)) / ((k + 1) ** 2))
    return c


def eta_mp(n: int) -> mpf:
    """eta(n) at DPS digits (working precision is raised internally)."""
    if n == 0:
        return mpf(0)
    with mp.workdps(DPS + 40):
        c = _laguerre_coeffs(n)
        roots = sorted(mpmath.re(r) for r in mpmath.polyroots(
            c[::-1], maxsteps=400, extraprec=4 * DPS))
        # derivatives of L_n as coefficient lists, for the antiderivative
        derivs = [c]
        for _ in range(n):
            d = derivs[-1]
            derivs.append([k * d[k] for k in range(1, len(d))])

        def anti(y):
            total = mpf(0)
            for k, d in enumerate(derivs):
                total += mpf(2) ** k * mpmath.polyval(d[::-1], y)
            return -2 * mpmath.exp(-y / 2) * total

        edges = [mpf(0)] + roots
        values = [anti(y) for y in edges] + [mpf(0)]   # F(inf) = 0
        absolute = sum(abs(b - a) for a, b in zip(values, values[1:]))
        return absolute / 2 - 1


def eta_reference() -> list:
    """Stored eta(0..NMAX) as floats."""
    return [float(v) for v in json.loads(PATH.read_text())["eta"]]


def damped_w_mp(n: int, lam: float, q: float, p: float) -> float:
    """((-1)^n / pi) e^(-y/2) L_n(y), y = 4 z / sqrt(1 - lam^2),
    z = (q^2 + p^2)/2 - lam q p, evaluated at DPS digits."""
    with mp.workdps(DPS):
        q, p, lam = mpf(q), mpf(p), mpf(lam)
        z = (q * q + p * p) / 2 - lam * q * p
        y = 4 * z / mpmath.sqrt(1 - lam * lam)
        val = (-1) ** n / mp.pi * mpmath.exp(-y / 2) * mpmath.laguerre(n, 0, y)
        return float(val)


def main() -> int:
    doc = {
        "what": "eta(n) = (1/2) int_0^inf exp(-y/2) |L_n(y)| dy - 1, "
                f"n = 0..{NMAX}, {DPS} significant digits",
        "command": "python3 perfbench/reference.py",
        "eta": [mpmath.nstr(eta_mp(n), DPS) for n in range(NMAX + 1)],
    }
    PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
