"""Certified exponential lower bounds on character degrees.

Every operation here checks its hypotheses up front (HypothesisError names
the first failing condition), builds the combinatorial construction behind
the bound, asserts the construction's internal inequalities
(ConsistencyError on violation, never a FAIL verdict), and only then
compares the degree against the bound.  Every comparison is one call of
``certificates.powers_ge`` on the bound's terms, the degree's certified
ball (``degrees.degree_ball``) among them: disjoint ``log2`` brackets decide
it, and only a near-tie charges the bit budget and builds the exact degree
and powers, falling back to the log domain past the budget.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import add, sub
from typing import NamedTuple

from .celltyping import _require_alpha, cell_typing, check_widths, rho
from .certificates import (
    BoundCertificate,
    CellTable,
    exact_power_ge,
    log_fraction,
    make_certificate,
    powers_ge,
)
from .degrees import DegreeBall, degree_ball, factorial_ball
from .errors import ConsistencyError, HypothesisError
from .partitions import Partition


@lru_cache(maxsize=64)
def _degree(lam: Partition) -> DegreeBall:
    """Certified ball of the degree of ``lam``, kept for the last 64 shapes.

    The bounds read their degrees here, so the dispatch reuses the ball its
    sub-bound computed and a run of shapes with the same Durfee side
    evaluates the square once.  Every reading goes through the ball: its
    ``log``, ``bit_length`` and certified ``log2`` bracket, which
    ``powers_ge`` reads in every comparison, the containment checks
    included; the exact degree is built only on a near-tie.
    ``degree_ball`` is looked up in this module at each miss, so a wrapper
    put in its place sees every evaluation.
    """
    return degree_ball(lam)


def _power_certificate(
    bound_name: str,
    f: DegreeBall,
    base: Fraction,
    exponent: Fraction,
    parameters: dict,
    aux: dict,
    cells: CellTable | None = None,
) -> BoundCertificate:
    """Certificate for f >= base**exponent, where f is a degree's ball.

    With exponent u/v in lowest terms, ``powers_ge`` decides f**v >= base**u
    from the certified brackets and charges the bit budget only on a
    near-tie, where it would build the powers.
    """
    lhs_log = f.log()
    rhs_log = float(exponent) * log_fraction(base)
    exact = powers_ge(((f, exponent.denominator),), ((base, exponent.numerator),))
    return make_certificate(
        bound_name, parameters, exponent, lhs_log, rhs_log, exact, aux, cells
    )


# ---------------------------------------------------------------------------
# hook-strip bound
# ---------------------------------------------------------------------------


def strip_bound(lam: Partition, k: int, l: int, alpha: Fraction) -> BoundCertificate:
    """Certify f(lam) >= alpha^n / n^m for lam in H(k, l).

    H(k, l) is the set of diagrams whose row k+1 has at most l cells; a
    diagram outside it fails with a HypothesisError.  When k < l the
    construction runs on the conjugate, which lies in H(l, k), so the
    working parameters always have K >= L (``aux["conjugated"]`` records
    the swap).  m = (2L + K - 1)K/2 is the size of the staircase
    mu_i = L + K - i (i <= K) that holds the A cells.  The cell classes go
    by row segments of the working diagram: row ``i <= K`` starts with
    ``min(lambda_i, mu_i)`` cells of A and ends with ``lambda_i - mu_i``
    cells of C (when positive); every row below ``K`` is B.  The
    certificate records ``k``, ``l``, ``m`` and ``n`` in ``parameters``,
    and the mass sequence ``t`` of length k+l, ``conjugated`` and the class
    sizes in ``aux``.  The row segments count the B and C hooks into a list
    indexed by hook length, up to the corner hook.  The last consistency
    check, ``prod(B and C hooks) <= prod t_i!``, is
    ``_check_t_factorials``: the segment checks give each hook a distinct
    factor of ``prod t_i!`` at least as large, so it holds by counting,
    with no product built.
    """
    alpha = _require_alpha(alpha)
    if k < 0 or l < 0:
        raise HypothesisError("k, l >= 0", f"k={k}, l={l}")
    check_widths(lam, alpha)
    n = lam.n

    if k >= l:
        work, wk, wl, conjugated = lam, k, l, False
        cols = lam.conjugate().parts
    else:
        work, wk, wl, conjugated = lam.conjugate(), l, k, True
        cols = lam.parts
    if work.part(wk + 1) > wl:
        raise HypothesisError(
            "lambda in H(k,l)",
            f"part {wk + 1} of the working diagram is {work.part(wk + 1)} > {wl}",
        )

    # t_s is the length of column s <= wl, then the overhang past wl of
    # row s <= wk, each read as 0 past the diagram
    top = work.parts[:wk]
    t = [*cols[:wl], *[0] * (wl - len(cols)), *[max(p - wl, 0) for p in top],
         *[0] * (wk - len(top))]
    if sum(t) != n:
        raise ConsistencyError(f"t-sequence sums to {sum(t)}, not n={n}")

    mu_n = sum(range(wl, wl + wk))
    m = (2 * wl + wk - 1) * wk // 2
    if mu_n != m:
        raise ConsistencyError(f"|mu|={mu_n} differs from m={m}")

    # Each hook check holds at every cell of a row segment iff it holds at
    # the segment's first cell, where its slack is least: in B,
    # h - (t_j - (i-wk)) = lambda_i - j + 1 - wk falls with j; in C,
    # h - (t_{wl+i} - joff + 1) = lambda'_j - wk does not rise with j.
    size_a = size_b = size_c = 0
    # indexed by hook, up to the corner hook, which no t_i exceeds
    counts = [0] * (work.parts[0] + cols[0])
    for i, row in enumerate(work.parts, start=1):
        top = i <= wk
        a = min(row, wl + wk - i) if top else 0
        size_a += a
        j = a + 1
        if j > row:
            continue
        h = (row - j) + (cols[j - 1] - i) + 1
        if top:
            size_c += row - a
            if cols[j - 1] > wk:
                raise ConsistencyError(
                    f"row-hook check fails at {(i, j)}: h={h} > t_{wl + i}-1+1"
                )
        else:
            size_b += row
            if row > wk:
                raise ConsistencyError(
                    f"column-hook check fails at {(i, j)}: h={h} > t_{j}-{i - wk}"
                )
        # hooks (row - j') + (lambda'_j' - i) + 1 for j' = j..row
        for h in map(add, range(row - i + 1 - j, -i, -1), cols[j - 1 : row]):
            counts[h] += 1
    if size_a > m:
        raise ConsistencyError(f"|A|={size_a} exceeds m={m}")
    _check_t_factorials(counts, t)

    # f * n^m >= alpha^n, built exactly only on a near-tie
    f = _degree(lam)
    lhs_log = f.log()
    rhs_log = n * log_fraction(alpha) - m * math.log(n)
    exact = powers_ge(((f, 1), (n, m)), ((alpha, n),))
    return make_certificate(
        "strip",
        {"alpha": alpha, "k": k, "l": l, "m": m, "n": n},
        Fraction(n),
        lhs_log,
        rhs_log,
        exact,
        aux={
            "conjugated": conjugated,
            "t": t,
            "sizes": {"A": size_a, "B": size_b, "C": size_c},
        },
    )


def _check_t_factorials(counts: list[int], t: list[int]) -> None:
    """Raise ``ConsistencyError`` unless ``prod h**counts[h] <= prod t_i!``.

    ``counts`` runs past every ``t_i``.  The factors of ``prod t_i!`` at
    least ``h`` number ``sum_i max(t_i - h + 1, 0)``.  When the hooks at
    least ``h`` are no more for every ``h``, each hook can be matched to a
    distinct factor at least as large (Hall's condition), so the product
    holds and nothing is built; the segment checks of ``strip_bound`` give
    such a matching.  Otherwise ``powers_ge`` decides the product exactly.
    """
    ends = [0] * len(counts)
    for ti in t:
        ends[ti] += 1
    # the gaps: the factors less the hooks at least h, for h falling from the top
    gaps = accumulate(map(sub, accumulate(reversed(ends)), reversed(counts)))
    if min(gaps) < 0:
        terms = [(h, c) for h, c in enumerate(counts) if c]
        if not powers_ge([(factorial_ball(ti), 1) for ti in t], terms, None):
            raise ConsistencyError("product of B and C hooks exceeds the t-factorial product")


# ---------------------------------------------------------------------------
# rectangle bound
# ---------------------------------------------------------------------------


def rectangle_bound(a: int, b: int) -> BoundCertificate:
    """Certify f(b^a) against n!/(b!)^a * 4^{-n} (exact) and (a/4)^n (weak).

    Each form is decided on its own by ``powers_ge``, which builds exact
    values only on a near-tie inside the bit budget.  As f * prod(h) = n!,
    the factorial form is the comparison (b!)^a * 4^n >= prod(h) over the
    rectangle's hook multiset, which needs neither n! nor the degree.  The
    verdict is the conjunction of the two inequalities, in log-domain mode
    when a form is left undecided; the recorded lhs/rhs logs belong to the
    comparison with the smaller margin, so the verdict stays recomputable
    from the serialized logs.
    """
    if a < 1 or b < 1:
        raise HypothesisError("a, b >= 1", f"a={a}, b={b}")
    swapped = b < a
    if swapped:
        a, b = b, a
    n = a * b
    f = _degree(Partition((b,) * a))
    lhs_log = f.log()

    exact_rhs_log = math.lgamma(n + 1) - a * math.lgamma(b + 1) - n * math.log(4)
    weak_rhs_log = n * (math.log(a) - math.log(4))
    # with a <= b, hook h occurs min(h, a, a + b - h) times, h = 1..a+b-1
    hooks = [(h, min(h, a, a + b - h)) for h in range(1, a + b)]
    exact_holds = powers_ge(((factorial(b), a), (4, n)), hooks)
    weak_holds = powers_ge(((f, 1),), ((Fraction(a, 4), n),))
    both = None if None in (exact_holds, weak_holds) else exact_holds and weak_holds

    margin_exact = lhs_log - exact_rhs_log
    margin_weak = lhs_log - weak_rhs_log
    rhs_log = exact_rhs_log if margin_exact <= margin_weak else weak_rhs_log
    return make_certificate(
        "rectangle",
        {"a": a, "b": b, "n": n},
        Fraction(n),
        lhs_log,
        rhs_log,
        both,
        aux={
            "swapped": swapped,
            "factorial_form_holds": exact_holds,
            "factorial_form_rhs_log": exact_rhs_log,
            "weak_form_holds": weak_holds,
            "weak_form_rhs_log": weak_rhs_log,
        },
    )


# ---------------------------------------------------------------------------
# overexponential square bound
# ---------------------------------------------------------------------------


def overexponential_bound(
    lam: Partition, eps: Fraction | int, gamma: Fraction | int
) -> BoundCertificate:
    """Certify the square route f(lam) >= f(delta^delta) >= gamma^n.

    ``eps`` and ``gamma`` are taken as exact rationals (an int or a float
    becomes the ``Fraction`` of its value).  The hypothesis delta^2/n >= eps
    gates the call, decided exactly; the verdict reports whether the
    square's degree clears gamma^n at this n (legitimately FAIL for small
    n).  The recorded lhs is the square's log degree so the stored margin
    determines the verdict; the input's own degree and the exact
    containment comparison live in aux.
    """
    eps, gamma = Fraction(eps), Fraction(gamma)
    n = lam.n
    if n < 1:
        raise HypothesisError("n >= 1", "empty partition")
    delta = lam.diagonal()
    if eps <= 0:
        raise HypothesisError("eps > 0", f"got {eps}")
    if Fraction(delta**2, n) < eps:
        raise HypothesisError("delta^2/n >= eps", f"delta={delta}, n={n}, eps={eps}")
    if gamma <= 0:
        raise HypothesisError("gamma > 0", f"got {gamma}")
    beta_log = log_fraction(gamma) / float(eps)
    return _square_bound(lam, delta, gamma, eps, True, beta_log)


def _square_bound(
    lam: Partition,
    delta: int,
    gamma: Fraction,
    eps: Fraction,
    eps_exact: bool,
    beta_log: float,
) -> BoundCertificate:
    """The square construction of ``overexponential_bound``, gates passed.

    ``eps`` is the gate as recorded (``eps_exact`` says whether it is the
    exact gate or a rational near a float one) and ``beta_log`` the
    recorded ``ln(gamma)/eps``.  Both degree balls come from ``_degree``,
    so a run of shapes with the same Durfee side evaluates the square once,
    and a square input compares equal to its own square with no build.
    """
    mu = Partition((delta,) * delta)
    if not lam.contains(mu):
        raise ConsistencyError("diagonal square does not fit inside the diagram")
    f_mu = _degree(mu)
    f_lam = _degree(lam)
    if not powers_ge(((f_lam, 1),), ((f_mu, 1),), None):
        raise ConsistencyError("containment monotonicity failed for the square")
    n = lam.n
    return _power_certificate(
        "overexponential",
        f_mu,
        gamma,
        Fraction(n),
        {"eps": eps, "gamma": gamma, "delta": delta, "k_n": delta * delta, "n": n},
        aux={
            "input_log_degree": f_lam.log(),
            "square_log_degree": f_mu.log(),
            "beta_log": beta_log,
            "containment_exact": True,
            "eps_exact": eps_exact,
            "gamma_exact": True,
        },
    )


# ---------------------------------------------------------------------------
# strict staircase bound (typing lemma)
# ---------------------------------------------------------------------------


def strict_bound(lam: Partition, alpha: Fraction) -> BoundCertificate:
    """Certify f(lam) >= alpha^(n - (delta^2 + alpha*rho)) via the cell typing."""
    alpha = _require_alpha(alpha)
    typing = cell_typing(lam, alpha)
    n = lam.n
    exponent = Fraction(n) - (Fraction(typing.delta**2) + alpha * typing.rho)
    sharp_exponent = Fraction(n - typing.counts[3])
    if sharp_exponent < exponent:
        raise ConsistencyError("sharper exponent n - |T4| fell below the claimed one")
    return _power_certificate(
        "strict",
        _degree(lam),
        alpha,
        exponent,
        {
            "alpha": alpha,
            "delta": typing.delta,
            "rho": typing.rho,
            "t4_size": typing.counts[3],
            "n": n,
        },
        aux={
            "sharp_exponent": sharp_exponent,
            "sharp_rhs_log": float(sharp_exponent) * log_fraction(alpha),
            "rounds_type1": typing.r,
            "rounds_type2": typing.q,
            "counts": list(typing.counts),
        },
        cells=typing.table,
    )


# ---------------------------------------------------------------------------
# diagram reduction
# ---------------------------------------------------------------------------


class ReductionTrace(NamedTuple):
    """Record of the staircasing reduction lam -> lam~ -> mu.

    ``lam_tilde`` and ``s``/``t`` are reported after the conjugate swap
    that enforces s >= t (``conjugated`` says whether it happened), so
    ``mu`` is contained in the input or in its conjugate accordingly.
    """

    input: Partition
    lam_tilde: Partition
    s: int
    t: int
    conjugated: bool
    mu: Partition
    n1: int
    n2: int
    delta: int
    delta_mu: int
    rho_mu: int


def _tilde(lam: Partition, conj: Partition, delta: int) -> Partition:
    """Apply the row and column staircasing rules to ``lam`` (conjugate ``conj``).

    The first delta rows are the staircased rows; below the square, the
    tail is the conjugate of the staircased columns' overhangs past delta.
    """
    rows = tuple(max(lam.part(i) - (i - 1), delta) for i in range(1, delta + 1))
    over = (conj.part(j) - (j - 1) - delta for j in range(1, delta + 1))
    tail = Partition(tuple(c for c in over if c > 0)).conjugate().parts
    return Partition(rows + tail)


def reduce_diagram(lam: Partition, alpha: Fraction) -> ReductionTrace:
    """Staircase lam -> lam~ -> mu, inside lam or its conjugate, so f(lam) >= f(mu).

    Gates delta >= 18*alpha, the widths and n > delta^2, in that order.  The
    typing gate of mu is not checked here: ``strict_bound(mu)`` runs it, so
    ``general_bound`` raises its ``HypothesisError`` for a mu that fails it.
    """
    alpha = _require_alpha(alpha)
    n = lam.n
    if n < 1:
        raise HypothesisError("n >= 1", "empty partition")
    delta = lam.diagonal()
    if delta < 18 * alpha:
        raise HypothesisError("delta >= 18*alpha", f"delta={delta}, 18*alpha={18 * alpha}")
    check_widths(lam, alpha)
    if n <= delta * delta:
        raise HypothesisError("n > delta^2", f"n={n}, delta={delta}")

    conj = lam.conjugate()
    lam_tilde = _tilde(lam, conj, delta)
    if not lam.contains(lam_tilde):
        # the rules only erase cells, so this is a construction bug
        raise ConsistencyError("staircased diagram is not contained in the input")

    # the first delta parts weakly decrease: the last one past delta is their count
    s = sum(p > delta for p in lam_tilde.parts[:delta])
    tilde_conj = lam_tilde.conjugate()
    t = sum(p > delta for p in tilde_conj.parts[:delta])
    conjugated = s < t
    if conjugated:
        lam_tilde = tilde_conj
        s, t = t, s

    n1 = lam_tilde.n
    if n1 < n - delta * delta + delta:
        raise ConsistencyError(f"erased more than delta^2 - delta cells: n1={n1}")
    if s < 1:
        raise ConsistencyError("no staircased row exceeds delta despite n > delta^2")

    if s == delta:
        mu = lam_tilde
    else:
        parts = list(lam_tilde.parts[: s + 1])
        parts += [delta - j for j in range(1, delta - s)]
        parts += list(lam_tilde.parts[delta:])
        mu = Partition(tuple(p for p in parts if p > 0))
    n2 = mu.n
    expected_n2 = n1 - (delta - s - 1) * (delta - s) // 2 if s < delta else n1
    if n2 != expected_n2:
        raise ConsistencyError(f"mu has {n2} cells, expected {expected_n2}")
    if not (lam.contains(mu) or conj.contains(mu)):
        raise ConsistencyError("mu is not contained in the input or its conjugate")

    delta_mu = mu.diagonal()
    if delta_mu < delta // 2 + 1:
        raise ConsistencyError(f"delta(mu)={delta_mu} below [delta/2]+1={delta // 2 + 1}")
    rho_mu = rho(delta_mu, alpha)
    return ReductionTrace(
        input=lam,
        lam_tilde=lam_tilde,
        s=s,
        t=t,
        conjugated=conjugated,
        mu=mu,
        n1=n1,
        n2=n2,
        delta=delta,
        delta_mu=delta_mu,
        rho_mu=rho_mu,
    )


def general_bound(lam: Partition, alpha: Fraction) -> BoundCertificate:
    """Certify f(lam) >= alpha^(n - (5/2 delta^2 + alpha rho)) via reduction.

    The strict certificate on the reduced diagram mu is kept in
    ``aux["mu_certificate"]`` as a ``BoundCertificate``, cell table included.
    """
    alpha = _require_alpha(alpha)
    trace = reduce_diagram(lam, alpha)
    mu_cert = strict_bound(trace.mu, alpha)

    f_lam = _degree(lam)
    if not powers_ge(((f_lam, 1),), ((_degree(trace.mu), 1),), None):
        raise ConsistencyError("containment monotonicity failed in the reduction")

    n = lam.n
    delta = trace.delta
    rho_lam = rho(delta, alpha)
    exponent = Fraction(n) - (Fraction(5, 2) * delta**2 + alpha * rho_lam)
    if mu_cert.exponent is not None and mu_cert.exponent < exponent:
        raise ConsistencyError(
            "chained exponent on mu fell below the claimed general exponent"
        )
    return _power_certificate(
        "general",
        f_lam,
        alpha,
        exponent,
        {
            "alpha": alpha,
            "delta": delta,
            "rho": rho_lam,
            "n": n,
            "n2": trace.n2,
            "delta_mu": trace.delta_mu,
            "rho_mu": trace.rho_mu,
        },
        aux={
            "s": trace.s,
            "t": trace.t,
            "conjugated": trace.conjugated,
            "n1": trace.n1,
            "mu": trace.mu.format(),
            "mu_certificate": mu_cert,
            "lifted_margin": f_lam.log() - mu_cert.rhs_log,
        },
    )


# ---------------------------------------------------------------------------
# main theorem dispatch
# ---------------------------------------------------------------------------

CLASS_M1 = "M1"
CLASS_M2 = "M2"
CLASS_M3 = "M3"


def _require_pair(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    """``(alpha, beta)`` as ``Fraction``s, gated by alpha > 1, then 1 < beta < alpha.

    The gates read the pair alone, so a sweep runs them once, before its
    first row, and the dispatch once per pair, in ``_dispatch_constants``.
    """
    alpha = _require_alpha(alpha)
    if type(beta) is not Fraction:
        beta = Fraction(beta)
    if not (1 < beta < alpha):
        raise HypothesisError("1 < beta < alpha", f"beta={beta}, alpha={alpha}")
    return alpha, beta


@lru_cache(maxsize=64)
def _dispatch_constants(
    alpha: Fraction, beta: Fraction
) -> tuple[float, Fraction, float, int]:
    """``(gamma, eps, beta_log, ceil(18*alpha))`` for one pair (alpha, beta).

    gamma = (ln alpha - ln beta)/ln alpha is the maximal exponent fraction
    and eps the M2 square's density gate, both log-domain floats kept for
    the record: the dispatch decides its class exactly (``_class_rule``)
    and never tests eps.  ``eps`` is returned as the rational a certificate
    records, ``Fraction(eps).limit_denominator(10**12)``, and ``beta_log``
    is ``log beta / eps`` on the float eps.  A pair that fails
    ``_require_pair`` raises, and is not cached.
    """
    _require_pair(alpha, beta)
    log_alpha = log_fraction(alpha)
    log_beta = log_fraction(beta)
    gamma = (log_alpha - log_beta) / log_alpha
    if alpha.denominator == 1:
        eps = gamma / float(Fraction(5, 2) + alpha)
    else:
        frac = alpha - math.floor(alpha)
        eps = gamma / float(3 + alpha / frac)
    eps_record = Fraction(eps).limit_denominator(10**12)
    return gamma, eps_record, log_beta / eps, math.ceil(18 * alpha)


def _class_rule(
    delta: int, n: int, alpha: Fraction, beta: Fraction
) -> tuple[str, int, float]:
    """The class of n, ``rho(delta)`` and the threshold T = 5/2 delta^2 + alpha*rho.

    M1 when delta < 18*alpha, decided as ``delta*q < 18*p`` for alpha = p/q.
    Otherwise M2 when gamma*n <= T, else M3, with gamma = (ln alpha -
    ln beta)/ln alpha.  Since T > 0 once delta >= 18*alpha, gamma*n <= T is
    the rational power comparison ``alpha**T >= (alpha/beta)**n``, decided
    exactly by ``exact_power_ge`` with exponent ``n/T``; its certified
    filter builds powers only on a near-tie.  The threshold is returned as
    the correctly rounded float ``(5*q*delta^2 + 2*p*rho) / (2*q)``, for
    the record; rho is 0 on the empty diagram.
    """
    p, q = alpha.numerator, alpha.denominator
    rho_val = rho(delta, alpha) if delta >= 1 else 0
    twice_qt = 5 * q * delta * delta + 2 * p * rho_val
    threshold = twice_qt / (2 * q)
    if delta * q < 18 * p:
        return CLASS_M1, rho_val, threshold
    if exact_power_ge(alpha, alpha / beta, Fraction(2 * q * n, twice_qt)):
        return CLASS_M2, rho_val, threshold
    return CLASS_M3, rho_val, threshold


def theorem_classify(lam: Partition, alpha: Fraction, beta: Fraction) -> BoundCertificate:
    """Certify f(lam) >= beta^n by dispatching on the M1/M2/M3 classification.

    The class is decided exactly (``_class_rule``); gamma, the maximal
    exponent fraction (ln alpha - ln beta)/ln alpha, and the class threshold
    are recorded in aux as floats for reading only.  The dispatched
    sub-certificate is kept in ``aux["sub_certificate"]`` as a
    ``BoundCertificate``; the final verdict always compares the exact
    degree against beta^n.

    An M2 class needs no test of the square's gate delta^2/n >= eps, as
    the class, gamma*n <= T = 5/2 delta^2 + alpha*rho, implies it.  For
    integer alpha, rho = delta^2 and eps = gamma/(5/2 + alpha), so the two
    are equivalent.  For fractional alpha, eps = gamma/(3 + alpha/frac);
    rho <= delta^2/frac + 1 and alpha <= delta^2/2 (as delta >= 18*alpha),
    so alpha*rho <= alpha*delta^2/frac + delta^2/2, T <= (3 + alpha/frac)*delta^2
    and gamma*n <= T gives delta^2/n >= eps.

    What depends only on (alpha, beta) -- gamma, the recorded eps and
    beta_log, and the strip parameter ceil(18*alpha) -- is computed once per
    pair; each row computes rho and the class threshold once, and the
    width and M1 gates are integer tests.

    The sub-certificate comes from the public bounds: ``strip_bound`` for
    M1, the square construction of ``overexponential_bound`` for M2 (with
    the recorded float eps, ``eps_exact: false``), and ``general_bound``,
    which chains ``strict_bound`` on the reduced diagram, for M3.  The
    final comparison reads the input's degree ball from ``_degree``, where
    the sub-bound left it, so each shape's degree is evaluated once.
    """
    alpha = _require_alpha(alpha)
    if type(beta) is not Fraction:
        beta = Fraction(beta)
    gamma, eps, beta_log, kl = _dispatch_constants(alpha, beta)
    check_widths(lam, alpha)
    n = lam.n
    delta = lam.diagonal()
    cls, rho_val, threshold = _class_rule(delta, n, alpha, beta)

    if cls == CLASS_M1:
        sub = strip_bound(lam, kl, kl, alpha)
    elif cls == CLASS_M2:
        sub = _square_bound(lam, delta, beta, eps, False, beta_log)
    else:
        sub = general_bound(lam, alpha)

    return _power_certificate(
        "theorem",
        _degree(lam),
        beta,
        Fraction(n),
        {"alpha": alpha, "beta": beta, "n": n, "delta": delta, "rho": rho_val},
        aux={
            "class": cls,
            "gamma": gamma,
            "class_threshold": threshold,
            "sub_certificate": sub,
        },
    )
