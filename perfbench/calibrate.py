"""A fixed slice of pure-Python work that measures the machine's current speed.

A shared host runs the same Python code at speeds that drift by up to 1.9x
over minutes, as neighbours load the shared cores and caches; a tight
arithmetic loop drifts less than code that walks lists, dicts and Fractions.
The worker runs one slice after every request, so each request's latency can
be put on a common scale: latency x REFERENCE_S / (the slices' time around
it).  The slice imports nothing from chartab and does the same work every
time, so no change to the program can move it; it imitates the program's
inner loops instead: small-int matrix products mod p (`_modp`), products of
Fraction coefficient vectors reduced modulo a polynomial (`cyclo`), and
tuple-keyed dict updates and list sorting (`permgroup`).
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Time of one slice on the 2-core x86 machine the benchmark was defined on,
# at its usual speed.  It only fixes the scale of the normalized times.
REFERENCE_S = 0.008

_P = 10007
_N = 14
_A = [[(7 * i + 3 * j + 1) % _P for j in range(_N)] for i in range(_N)]
_B = [[(5 * i * j + i + 2) % _P for j in range(_N)] for i in range(_N)]
_MODULUS = [1, -1, 0, 1, -1, 1, 0, -1, 1]  # monic, degree 8
_U = [Fraction(k + 1, 2 * k + 3) for k in range(8)]
_V = [Fraction(3 - k, k + 2) for k in range(8)]


def _mat_mul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def _poly_mul_mod(u, v):
    prod = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                prod[i + j] += x * y
    deg = len(_MODULUS) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            for j, m in enumerate(_MODULUS):
                prod[i - deg + j] -= c * m
    return prod[:deg]


def _dict_churn(n):
    counts: dict = {}
    point = tuple(range(9))
    for k in range(n):
        point = point[3:] + point[:3] if k % 3 else point[::-1]
        key = (point[k % 9], point[(k * 5) % 9], k % 17)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def work() -> int:
    """One slice of work; returns a checksum so that nothing is skipped."""
    m = _A
    for _ in range(3):
        m = _mat_mul(m, _B, _P)
    w = _U
    for _ in range(6):
        w = _poly_mul_mod(w, _V)
        w = [x.limit_denominator(10 ** 6) for x in w]
    churn = _dict_churn(2500)
    return m[0][0] + len(churn) + w[0].numerator % _P


def slice_s() -> float:
    """Seconds one slice of work takes now.  The cyclic garbage collector is
    off during the slice, so that its time does not grow with the program's
    heap: a program that kept more objects alive would otherwise slow the
    slices and hide part of its own cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
