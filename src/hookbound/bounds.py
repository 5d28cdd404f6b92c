"""Certified exponential lower bounds on character degrees.

Every operation here checks its hypotheses up front (HypothesisError names
the first failing condition), builds the combinatorial construction behind
the bound, asserts the construction's internal inequalities
(ConsistencyError on violation, never a FAIL verdict), and only then
compares the exact degree against the bound, exactly when the bit budget
allows and in the log domain otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .celltyping import CellTyping, cell_typing, check_typing_hypotheses, rho
from .certificates import (
    BoundCertificate,
    exact_bit_budget,
    exact_power_ge,
    log_fraction,
    make_certificate,
    power_compare_bits,
)
from .degrees import degree
from .errors import ConsistencyError, HypothesisError
from .partitions import Cell, Partition


def _require_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise HypothesisError("alpha > 1", f"got {alpha}")
    return alpha


def _check_width_gates(lam: Partition, alpha: Fraction) -> None:
    n = lam.n
    if n < 1:
        raise HypothesisError("n >= 1", "empty partition")
    if lam.part(1) * alpha > n:
        raise HypothesisError("lambda_1 <= n/alpha", f"lambda_1={lam.part(1)}, n={n}")
    if lam.conjugate().part(1) * alpha > n:
        raise HypothesisError(
            "lambda'_1 <= n/alpha", f"lambda'_1={lam.conjugate().part(1)}, n={n}"
        )


def _alpha_power_certificate(
    bound_name: str,
    f: int,
    alpha: Fraction,
    exponent: Fraction,
    parameters: dict,
    aux: dict,
    cells: tuple | None = None,
) -> BoundCertificate:
    """Certificate for f >= alpha**exponent, where f is the exact degree."""
    lhs_log = math.log(f)
    rhs_log = float(exponent) * log_fraction(alpha)
    exact = None
    if power_compare_bits(alpha, exponent, f.bit_length()) <= exact_bit_budget():
        exact = exact_power_ge(Fraction(f), alpha, exponent)
    return make_certificate(
        bound_name, parameters, exponent, lhs_log, rhs_log, exact, aux, cells
    )


# ---------------------------------------------------------------------------
# hook-strip bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripCertificate:
    """Construction record for the strip bound f >= alpha^n / n^m.

    ``t`` is the column/row mass sequence of length k+l, ``m`` the bound's
    polynomial degree, and A/B/C the three cell classes of the working
    diagram (the conjugate of the input when k < l forced a swap).
    """

    k: int
    l: int
    conjugated: bool
    t: tuple[int, ...]
    m: int
    cells_a: tuple[Cell, ...]
    cells_b: tuple[Cell, ...]
    cells_c: tuple[Cell, ...]
    bound_log: float
    certificate: BoundCertificate

    @property
    def verdict(self) -> str:
        return self.certificate.verdict


def strip_bound(lam: Partition, k: int, l: int, alpha: Fraction) -> StripCertificate:
    alpha = _require_alpha(alpha)
    if k < 0 or l < 0:
        raise HypothesisError("k, l >= 0", f"k={k}, l={l}")
    _check_width_gates(lam, alpha)
    n = lam.n

    if k >= l:
        work, wk, wl, conjugated = lam, k, l, False
    else:
        work, wk, wl, conjugated = lam.conjugate(), l, k, True
    if work.part(wk + 1) > wl:
        raise HypothesisError(
            "lambda in H(k,l)",
            f"part {wk + 1} of the working diagram is {work.part(wk + 1)} > {wl}",
        )

    conj = work.conjugate()
    t = tuple(conj.part(s) for s in range(1, wl + 1)) + tuple(
        max(work.part(s) - wl, 0) for s in range(1, wk + 1)
    )
    if sum(t) != n:
        raise ConsistencyError(f"t-sequence sums to {sum(t)}, not n={n}")

    mu_parts = tuple(p for p in range(wl + wk - 1, wl - 1, -1) if p > 0)
    mu = Partition(mu_parts)
    m = (2 * wl + wk - 1) * wk // 2
    if mu.n != m:
        raise ConsistencyError(f"|mu|={mu.n} differs from m={m}")

    cells_a, cells_b, cells_c = [], [], []
    hooks = work.hook_grid()
    prod_bc = 1
    for cell in work.cells():
        i, j = cell
        if cell in mu:
            cells_a.append(cell)
        elif i >= wk + 1:
            cells_b.append(cell)
            h = hooks[cell]
            if h > t[j - 1] - (i - wk):
                raise ConsistencyError(
                    f"column-hook check fails at {tuple(cell)}: h={h} > t_{j}-{i - wk}"
                )
            prod_bc *= h
        else:
            cells_c.append(cell)
            h = hooks[cell]
            joff = j - mu.part(i)
            if h > t[wl + i - 1] - joff + 1:
                raise ConsistencyError(
                    f"row-hook check fails at {tuple(cell)}: h={h} > t_{wl + i}-{joff}+1"
                )
            prod_bc *= h
    if len(cells_a) > m:
        raise ConsistencyError(f"|A|={len(cells_a)} exceeds m={m}")
    fact_t = 1
    for ti in t:
        fact_t *= factorial(ti)
    if prod_bc > fact_t:
        raise ConsistencyError("product of B and C hooks exceeds the t-factorial product")

    # f >= alpha^n / n^m, exact when the integers fit the budget
    f = degree(lam)
    p, q = alpha.numerator, alpha.denominator
    lhs_log = math.log(f)
    rhs_log = n * log_fraction(alpha) - m * math.log(n)
    bits = (
        f.bit_length()
        + n * q.bit_length()
        + m * n.bit_length()
        + n * p.bit_length()
    )
    exact = None
    if bits <= exact_bit_budget():
        exact = f * q**n * n**m >= p**n
    cert = make_certificate(
        "strip",
        {"alpha": alpha, "k": k, "l": l, "m": m, "n": n},
        Fraction(n),
        lhs_log,
        rhs_log,
        exact,
        aux={
            "conjugated": conjugated,
            "t": list(t),
            "sizes": {"A": len(cells_a), "B": len(cells_b), "C": len(cells_c)},
        },
    )
    return StripCertificate(
        k=k,
        l=l,
        conjugated=conjugated,
        t=t,
        m=m,
        cells_a=tuple(cells_a),
        cells_b=tuple(cells_b),
        cells_c=tuple(cells_c),
        bound_log=rhs_log,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# rectangle bound
# ---------------------------------------------------------------------------


def rectangle_bound(a: int, b: int) -> BoundCertificate:
    """Certify f(b^a) against n!/(b!)^a * 4^{-n} (exact) and (a/4)^n (weak).

    The verdict is the conjunction of the two inequalities; the recorded
    lhs/rhs logs belong to the comparison with the smaller margin, so the
    verdict stays recomputable from the serialized logs.
    """
    if a < 1 or b < 1:
        raise HypothesisError("a, b >= 1", f"a={a}, b={b}")
    swapped = b < a
    if swapped:
        a, b = b, a
    n = a * b
    shape = Partition((b,) * a)
    f = degree(shape)
    lhs_log = math.log(f)

    ln2 = math.log(2)
    est_bits = int(
        (math.lgamma(n + 1) + a * math.lgamma(b + 1)) / ln2
    ) + f.bit_length() + 4 * n
    exact_rhs_log = math.lgamma(n + 1) - a * math.lgamma(b + 1) - n * math.log(4)
    weak_rhs_log = n * (math.log(a) - math.log(4))
    if est_bits <= exact_bit_budget():
        exact_rhs_num = factorial(n)
        exact_rhs_den = factorial(b) ** a * 4**n
        exact_holds: bool | None = f * exact_rhs_den >= exact_rhs_num
        weak_holds: bool | None = f * 4**n >= a**n
        both: bool | None = exact_holds and weak_holds
    else:
        exact_holds = weak_holds = both = None

    margin_exact = lhs_log - exact_rhs_log
    margin_weak = lhs_log - weak_rhs_log
    rhs_log = exact_rhs_log if margin_exact <= margin_weak else weak_rhs_log
    cert = make_certificate(
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
    return cert


# ---------------------------------------------------------------------------
# overexponential square bound
# ---------------------------------------------------------------------------


def overexponential_bound(
    lam: Partition, eps: Fraction | float, gamma: Fraction | float
) -> BoundCertificate:
    """Certify the square route f(lam) >= f(delta^delta) >= gamma^n.

    The hypothesis delta^2/n >= eps gates the call; the verdict reports
    whether the square's degree clears gamma^n at this n (legitimately FAIL
    for small n).  The recorded lhs is the square's log degree so the
    stored margin determines the verdict; the input's own degree and the
    exact containment comparison live in aux.
    """
    n = lam.n
    if n < 1:
        raise HypothesisError("n >= 1", "empty partition")
    if isinstance(eps, Fraction):
        if eps <= 0:
            raise HypothesisError("eps > 0", f"got {eps}")
        hyp_ok = Fraction(lam.diagonal() ** 2, n) >= eps
    else:
        if eps <= 0:
            raise HypothesisError("eps > 0", f"got {eps}")
        hyp_ok = lam.diagonal() ** 2 / n >= eps * (1 - 1e-9)
    if not hyp_ok:
        raise HypothesisError(
            "delta^2/n >= eps", f"delta={lam.diagonal()}, n={n}, eps={eps}"
        )
    gamma_is_exact = isinstance(gamma, Fraction)
    if gamma <= 0:
        raise HypothesisError("gamma > 0", f"got {gamma}")
    gamma_f = Fraction(gamma) if gamma_is_exact else None
    gamma_log = log_fraction(gamma_f) if gamma_is_exact else math.log(gamma)

    delta = lam.diagonal()
    mu = Partition((delta,) * delta)
    if not lam.contains(mu):
        raise ConsistencyError("diagonal square does not fit inside the diagram")
    f_mu = degree(mu)
    f_lam = degree(lam)
    if f_lam < f_mu:
        raise ConsistencyError("containment monotonicity failed for the square")

    lhs_log = math.log(f_mu)
    rhs_log = n * gamma_log
    exact = None
    if gamma_is_exact:
        expo = Fraction(n)
        if power_compare_bits(gamma_f, expo, f_mu.bit_length()) <= exact_bit_budget():
            exact = exact_power_ge(Fraction(f_mu), gamma_f, expo)
    beta_log = gamma_log / float(eps)
    return make_certificate(
        "overexponential",
        {
            "eps": Fraction(eps) if isinstance(eps, Fraction) else Fraction(eps).limit_denominator(10**12),
            "gamma": gamma_f if gamma_is_exact else Fraction(gamma).limit_denominator(10**12),
            "delta": delta,
            "k_n": delta * delta,
            "n": n,
        },
        Fraction(n),
        lhs_log,
        rhs_log,
        exact,
        aux={
            "input_log_degree": math.log(f_lam),
            "square_log_degree": lhs_log,
            "beta_log": beta_log,
            "containment_exact": True,
            "eps_exact": isinstance(eps, Fraction),
            "gamma_exact": gamma_is_exact,
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
    cert = _alpha_power_certificate(
        "strict",
        degree(lam),
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
        cells=tuple(tuple(rec.as_list()) for rec in typing.cells),
    )
    return cert


# ---------------------------------------------------------------------------
# diagram reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionTrace:
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


def _tilde(lam: Partition, delta: int) -> Partition:
    """Apply the row and column staircasing rules and reassemble the diagram."""
    conj = lam.conjugate()
    rows = [max(lam.part(i) - (i - 1), delta) for i in range(1, delta + 1)]
    cols = [max(conj.part(j) - (j - 1), delta) for j in range(1, delta + 1)]
    parts = list(rows)
    level = delta + 1
    while True:
        width = sum(1 for c in cols if c >= level)
        if width == 0:
            break
        parts.append(width)
        level += 1
    return Partition(tuple(parts))


def reduce_diagram(
    lam: Partition, alpha: Fraction, *, trace_only: bool = False
) -> ReductionTrace:
    """Reduce to a diagram satisfying the typing hypotheses, keeping f monotone.

    With ``trace_only`` the construction runs without the delta >= 18*alpha
    and n > delta^2 gates and without asserting that mu passes the typing
    gate; used to trace the rules on small diagrams.
    """
    alpha = _require_alpha(alpha)
    n = lam.n
    if n < 1:
        raise HypothesisError("n >= 1", "empty partition")
    delta = lam.diagonal()
    if not trace_only:
        check_typing_hypotheses(lam, alpha, factor=18)
        if n <= delta * delta:
            raise HypothesisError("n > delta^2", f"n={n}, delta={delta}")

    lam_tilde = _tilde(lam, delta)
    if not lam.contains(lam_tilde):
        # the rules only erase cells, so this is a construction bug
        raise ConsistencyError("staircased diagram is not contained in the input")

    def last_above(p: Partition) -> int:
        s = 0
        for i in range(1, delta + 1):
            if p.part(i) > delta:
                s = i
        return s

    s = last_above(lam_tilde)
    t = last_above(lam_tilde.conjugate())
    conjugated = s < t
    if conjugated:
        lam_tilde = lam_tilde.conjugate()
        s, t = t, s

    n1 = lam_tilde.n
    if not trace_only:
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
    if not (lam.contains(mu) or lam.conjugate().contains(mu)):
        raise ConsistencyError("mu is not contained in the input or its conjugate")

    delta_mu = mu.diagonal()
    if not trace_only:
        if delta_mu < delta // 2 + 1:
            raise ConsistencyError(
                f"delta(mu)={delta_mu} below [delta/2]+1={delta // 2 + 1}"
            )
        # mu must clear the typing gate for the chained bound to apply
        check_typing_hypotheses(mu, alpha, factor=9)
    rho_mu = rho(delta_mu, alpha) if delta_mu >= 1 else 0
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
    """Certify f(lam) >= alpha^(n - (5/2 delta^2 + alpha rho)) via reduction."""
    alpha = _require_alpha(alpha)
    trace = reduce_diagram(lam, alpha)
    mu_cert = strict_bound(trace.mu, alpha)

    f_lam = degree(lam)
    f_mu = degree(trace.mu)
    if f_lam < f_mu:
        raise ConsistencyError("containment monotonicity failed in the reduction")

    n = lam.n
    delta = trace.delta
    rho_lam = rho(delta, alpha)
    exponent = Fraction(n) - (Fraction(5, 2) * delta**2 + alpha * rho_lam)
    if mu_cert.exponent is not None and mu_cert.exponent < exponent:
        raise ConsistencyError(
            "chained exponent on mu fell below the claimed general exponent"
        )
    cert = _alpha_power_certificate(
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
            "mu_certificate": mu_cert.to_json_dict(),
            "lifted_margin": math.log(f_lam) - mu_cert.rhs_log,
        },
    )
    return cert


# ---------------------------------------------------------------------------
# main theorem dispatch
# ---------------------------------------------------------------------------

CLASS_M1 = "M1"
CLASS_M2 = "M2"
CLASS_M3 = "M3"

_CLASS_TIE_TOL = 1e-9


def classify(lam: Partition, alpha: Fraction, gamma_log_ratio: float) -> str:
    """Place n into M1/M2/M3 from delta, rho and the exponent fraction gamma."""
    delta = lam.diagonal()
    if Fraction(delta) < 18 * alpha:
        return CLASS_M1
    threshold = float(Fraction(5, 2) * delta**2 + alpha * rho(delta, alpha))
    gn = gamma_log_ratio * lam.n
    if gn <= threshold + _CLASS_TIE_TOL * max(abs(gn), abs(threshold)):
        return CLASS_M2
    return CLASS_M3


def theorem_classify(lam: Partition, alpha: Fraction, beta: Fraction) -> BoundCertificate:
    """Certify f(lam) >= beta^n by dispatching on the M1/M2/M3 classification.

    gamma is the maximal exponent fraction (ln alpha - ln beta)/ln alpha,
    carried as a log-domain float.  The dispatched sub-certificate is
    recorded in aux; the final verdict always compares the exact degree
    against beta^n.
    """
    alpha = _require_alpha(alpha)
    beta = Fraction(beta)
    if not (1 < beta < alpha):
        raise HypothesisError("1 < beta < alpha", f"beta={beta}, alpha={alpha}")
    _check_width_gates(lam, alpha)
    n = lam.n
    delta = lam.diagonal()

    log_alpha = log_fraction(alpha)
    log_beta = log_fraction(beta)
    gamma = (log_alpha - log_beta) / log_alpha
    cls = classify(lam, alpha, gamma)

    if cls == CLASS_M1:
        kl = math.ceil(18 * alpha)
        sub = strip_bound(lam, kl, kl, alpha).certificate
    elif cls == CLASS_M2:
        if alpha.denominator == 1:
            eps = gamma / float(Fraction(5, 2) + alpha)
        else:
            frac = alpha - math.floor(alpha)
            eps = gamma / float(3 + alpha / frac)
        sub = overexponential_bound(lam, eps, beta)
    else:
        sub = general_bound(lam, alpha)

    f = degree(lam)
    lhs_log = math.log(f)
    rhs_log = n * log_beta
    expo = Fraction(n)
    exact = None
    if power_compare_bits(beta, expo, f.bit_length()) <= exact_bit_budget():
        exact = exact_power_ge(Fraction(f), beta, expo)
    rho_val = rho(delta, alpha) if delta >= 1 else 0
    cert = make_certificate(
        "theorem",
        {"alpha": alpha, "beta": beta, "n": n, "delta": delta, "rho": rho_val},
        expo,
        lhs_log,
        rhs_log,
        exact,
        aux={
            "class": cls,
            "gamma": gamma,
            "class_threshold": float(Fraction(5, 2) * delta**2 + alpha * rho_val),
            "sub_certificate": sub.to_json_dict(),
        },
    )
    return cert
