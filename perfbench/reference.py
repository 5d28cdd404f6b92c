"""Independent verdict reference for the benchmark's correctness check.

Shares no code with ``hookbound``: the degree comes from the determinantal
(Frobenius) formula

    f(lambda) = n! * prod_{i<j} (l_i - l_j) / prod_i l_i!,   l_i = lambda_i + k - i,

rather than from hook lengths, and every inequality is decided exactly, as
a rational power comparison (``powers_ge``), never with a log-domain
tolerance.  Partitions are plain tuples of weakly decreasing positive parts.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

M1, M2, M3 = "M1", "M2", "M3"
SUB_BOUND = {M1: "strip", M2: "overexponential", M3: "general"}


@lru_cache(maxsize=None)
def degree(parts: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shape, by the determinantal formula.

    Cached: the runner checks each input against the library's degree and
    then decides its verdicts, in one process for one workload.
    """
    k = len(parts)
    n = sum(parts)
    ell = [p + k - 1 - i for i, p in enumerate(parts)]
    vandermonde = math.prod(ell[i] - ell[j] for i in range(k) for j in range(i + 1, k))
    denominator = math.prod(math.factorial(x) for x in ell)
    f, rem = divmod(math.factorial(n) * vandermonde, denominator)
    if rem:
        raise ArithmeticError(f"determinantal formula is not integral for {parts}")
    return f


def diagonal(parts: tuple[int, ...]) -> int:
    """Side of the largest square inside the diagram (the Durfee square)."""
    return sum(1 for i, p in enumerate(parts, start=1) if p >= i)


def rho(delta: int, alpha: Fraction) -> int:
    """delta^2 for integer alpha, else floor(delta^2 / frac(alpha)) + 1."""
    if alpha.denominator == 1:
        return delta * delta
    return math.floor(Fraction(delta * delta) / (alpha - math.floor(alpha))) + 1


def powers_ge(x: Fraction, s: Fraction, y: Fraction, t: Fraction) -> bool:
    """Exactly decide x**s >= y**t for positive rationals x, y and rationals s, t.

    Clearing the exponents' denominators d gives the rational comparison
    x**(s*d) >= y**(t*d).  Its operands can run to millions of bits, so a
    float filter decides first when the two sides' logs are further apart
    than a rigorous bound on their rounding error (2**-40 relative to each
    log term, thousands of times the real error); only near-ties pay for
    the big powers.
    """
    x, s, y, t = (Fraction(v) for v in (x, s, y, t))
    lhs, lhs_err = _log_power(x, s)
    rhs, rhs_err = _log_power(y, t)
    if abs(lhs - rhs) > lhs_err + rhs_err:
        return lhs > rhs
    d = s.denominator * t.denominator
    return x ** int(s * d) >= y ** int(t * d)


def _log_power(x: Fraction, s: Fraction) -> tuple[float, float]:
    """s*ln(x) in floating point, with an upper bound on its absolute error."""
    log_num, log_den = math.log(x.numerator), math.log(x.denominator)
    scale = abs(float(s)) * (abs(log_num) + abs(log_den) + 1.0)
    return float(s) * (log_num - log_den), scale * 2.0**-40


def power_ge(lhs: Fraction | int, base: Fraction, exponent: Fraction) -> bool:
    """Exactly decide lhs >= base**exponent for lhs > 0, base > 0."""
    return powers_ge(lhs, 1, base, exponent)


def general_exponent(n: int, delta: int, alpha: Fraction) -> Fraction:
    """Exponent n - (5/2 delta^2 + alpha*rho) of the reduction bound."""
    return n - (Fraction(5, 2) * delta * delta + alpha * rho(delta, alpha))


def dispatch_class(parts: tuple[int, ...], alpha: Fraction, beta: Fraction) -> str:
    """M1/M2/M3 of the theorem dispatch, decided exactly.

    M1 when delta < 18*alpha.  Otherwise gamma*n <= T, with
    gamma = (ln alpha - ln beta)/ln alpha and T = 5/2 delta^2 + alpha*rho,
    is equivalent to alpha**T >= (alpha/beta)**n: M2 when it holds, else M3.
    """
    delta = diagonal(parts)
    if delta < 18 * alpha:
        return M1
    n = sum(parts)
    threshold = Fraction(5, 2) * delta * delta + alpha * rho(delta, alpha)
    return M2 if powers_ge(alpha, threshold, alpha / beta, n) else M3


def _verdict(holds: bool) -> str:
    return "PASS" if holds else "FAIL"


def theorem(parts: tuple[int, ...], alpha: Fraction, beta: Fraction) -> dict:
    """Expected verdict, class, sub-bound and sub-verdict of ``theorem_classify``.

    The sub-verdict is the dispatched bound's own inequality: the strip
    bound f >= alpha^n / n^m with k = l = ceil(18*alpha) for M1, the
    diagonal square's degree against beta^n for M2, and the reduction
    exponent for M3.
    """
    n = sum(parts)
    f = degree(parts)
    cls = dispatch_class(parts, alpha, beta)
    if cls == M1:
        k = math.ceil(18 * alpha)
        m = (2 * k + k - 1) * k // 2
        sub = power_ge(f * n**m, alpha, Fraction(n))
    elif cls == M2:
        delta = diagonal(parts)
        sub = power_ge(degree((delta,) * delta), beta, Fraction(n))
    else:
        sub = power_ge(f, alpha, general_exponent(n, diagonal(parts), alpha))
    return {
        "verdict": _verdict(power_ge(f, beta, Fraction(n))),
        "class": cls,
        "sub_bound": SUB_BOUND[cls],
        "sub_verdict": _verdict(sub),
    }


def general(parts: tuple[int, ...], alpha: Fraction) -> dict:
    """Expected verdict of ``general_bound``: f >= alpha^(n - (5/2 delta^2 + alpha*rho))."""
    n = sum(parts)
    exponent = general_exponent(n, diagonal(parts), alpha)
    return {"verdict": _verdict(power_ge(degree(parts), alpha, exponent))}


def partitions(n: int, cap: int | None = None):
    """Every partition of n with parts at most ``cap``, largest parts first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest
