"""Four-type cell numbering for diagrams with a strictly staircased top.

Given a rational multiplier alpha > 1 and a diagram whose first delta rows
are strictly decreasing and end in a removable corner, every cell receives
a type and a number N, 1..n:

  type 1   rounds of full corner peeling, repeated while the running
           diagram keeps at least 2*alpha corners; each round is a color,
           cells numbered top to bottom with a running counter;
  type 2   rounds peeling only the corners outside the delta x delta
           square, repeated while at least alpha such corners exist;
  type 3   cells of the surviving diagram outside the (delta+rho) square,
           numbered shell by shell from the outermost shell inward (a
           shell Q_m holds the cells with row m or column m); within a
           shell the row segment comes first (increasing column), then the
           column segment (increasing row);
  type 4   everything else, numbered last in row-major order.

The construction works on row arrays: a running list of row lengths,
peeled at the rows that end in a corner, and one zero-filled array of
numbers N and one of colors per row, in the lane ``lane_code(n)``: the
narrowest signed array code that holds n (16 bits below n = 2**15, 32
below 2**31, else 64), since no number, color or hook exceeds n.  Every
round, shell and the type-4 block takes consecutive numbers.  Type-1 rounds peel cell
by cell only while some nonempty row of the running diagram is not a
corner.  Once every nonempty row is one (strictly decreasing rows, as in
the top delta rows), each round peels every nonempty row and the rows stay
strict, so round r peels k_r = #{i : w_i >= r} cells, the conjugate of the
running rows w, and the rounds run while k_r >= ceil(2*alpha).  The cell
that round r peels from row i (counted from 1) is numbered
c + k_1 + ... + k_(r-1) + i, c the count before the first such round.  So
each row's numbers there are a slice of the reversed prefix sums plus the
row index, and its colors a slice of the falling round numbers.  The
per-cell phases (the cell-by-cell rounds, type 2 and the type-3 column
cells) write single entries; the rest is written a row slice at a time,
each sum one big-integer add over the row's bytes (``_row_sum``): these
stretches, the type-3 row segments and the type-4 ranges, and each row's
hooks (of the original diagram), a slice of the falling widths plus a
prefix of the conjugate.  Every phase peels from the right end of a row,
so a row's types are its type-4, 3, 2 and 1 cells left to right, byte
runs cut at the running rows after types 3, 2 and 1.  The typing keeps
its cells once, as the ``table``: a ``certificates.CellTable`` of
row-major typed columns of types (one byte) and colors, numbers and
hooks (in the lane), packed from the joined rows.  It is the form a
typing-backed certificate keeps, it is the typing's one representation of
its cells, and it iterates as plain
``(row, col, cell_type, color, number, hook)`` tuples; ``eq1_violations``,
``grid_lines`` and ``to_json_dict`` read it.

The returned typing has been checked against the invariants that make the
peeling argument sound: the counter inequality alpha*h <= N for every
type-1/2/3 cell numbered N >= alpha, the bound h <= N for every type-1/2/3
cell, the round lower bounds, the type-1 mass inequality, the type-4
budget, the type-4 falling-factorial product bound, and the aggregate
product over type-1/2/3 cells that the degree bound rests on.  A failed
check raises ConsistencyError.  Every check is exact in integers: with
alpha = p/q, alpha*h <= N reads p*h <= q*N.  One pass scatters each
cell's hook to slot N of a list, and the numbering is a bijection onto
1..n when every number lies in 1..n and no slot is left empty.  The other
per-cell clauses are lane tests over the row-major columns (SWAR: small
integers in guarded lanes of one big integer; Lamport, "Multiple byte
processing with full-word instructions", CACM 1975).  Every cell's type
must be the run of its number, of the runs that the counts cut 1..n into:
1 plus three threshold compares of the numbers, read as one integer,
against the types column widened to the numbers' lanes (the column is
cut from the rows, the runs from the counts, so each checks the other).
The type-1/2/3 cells are the numbers 1..t: those below alpha are held to
h <= N by a hook slice against a range of N, and the rest to the counter
inequality by one test of ``q*N - p*h >= 0`` in lanes wide enough that
nothing carries; the type-4 product reads the slice past t.  Only a
failed per-cell clause walks the cells, to name the first bad one.  The
aggregate product ``prod N * q^t >= p^t * prod h`` follows from the
counter inequality, each of whose factors q*N/(p*h) is at least 1, once
the exact factors of a few cells from N = t down cover the shortfall of
the cells below alpha; only when they do not is it passed to
``certificates.powers_ge``, as ``t! * q^t`` against ``p^t`` and the hook
multiset, with no bit budget and ``t!`` as a ``degrees.factorial_ball``,
so that only a near-tie builds it.

The per-cell inequality alpha*h <= N cannot hold for the cells numbered
below alpha (the very first peeled corner has N = 1 and hook 1, and
alpha > 1), so those cells are exempted from it and surfaced through
``eq1_violations`` instead; the aggregate product inequality absorbs them.
They are still held to h <= N, the remark N >= h of the hook-length
argument: the arm and leg of a peeled cell were peeled before it.
Without that bound a renumbering that moves a long-hooked cell below alpha
would go unnoticed, since the aggregate product does not change under any
permutation of the numbers.
"""
from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from operator import eq, le, setitem
from typing import NamedTuple, Sequence

from .certificates import CellTable, lane_code, powers_ge
from .degrees import _product_tree, factorial_ball
from .errors import ConsistencyError, HypothesisError
from .partitions import Partition, corner_rows, format_rational


def _require_alpha(alpha: Fraction) -> Fraction:
    """``alpha`` as a ``Fraction``, gated by alpha > 1."""
    if type(alpha) is not Fraction:
        alpha = Fraction(alpha)
    if alpha <= 1:
        raise HypothesisError("alpha > 1", f"got {alpha}")
    return alpha


def rho(delta: int, alpha: Fraction) -> int:
    """Correction term: delta^2 for integer alpha, else floor(delta^2/frac(alpha)) + 1.

    With alpha = p/q, frac(alpha) = (p mod q)/q, so the quotient is the
    integer ``delta^2 * q // (p mod q)``.
    """
    alpha = _require_alpha(alpha)
    if delta < 1:
        raise HypothesisError("delta >= 1", f"got {delta}")
    p, q = alpha.numerator, alpha.denominator
    if q == 1:
        return delta * delta
    return delta * delta * q // (p % q) + 1


class CellTyping(NamedTuple):
    partition: Partition
    alpha: Fraction
    delta: int
    rho: int
    tau: int
    r: int
    q: int
    s_rounds: tuple[int, ...]
    t_rounds: tuple[int, ...]
    counts: tuple[int, int, int, int]
    table: CellTable
    mu: Partition

    @property
    def n(self) -> int:
        return self.partition.n

    def eq1_violations(self) -> tuple[tuple[int, ...], ...]:
        """Rows ``(row, col, type, color, N, hook)`` of the table for the type-1/2/3
        cells with alpha*hook > N (always numbered below alpha)."""
        p, q = self.alpha.numerator, self.alpha.denominator
        return tuple(r for r in self.table if r[2] in _T123 and p * r[5] > q * r[4])

    def grid_lines(self) -> list[str]:
        """One character per cell (the type), one string per diagram row."""
        types = map(str, self.table.types)
        return ["".join(islice(types, row)) for row in self.partition.parts]

    def to_json_dict(self) -> dict:
        return {
            "partition": self.partition.format(),
            "alpha": format_rational(self.alpha),
            "delta": self.delta,
            "rho": self.rho,
            "tau": self.tau,
            "rounds_type1": self.r,
            "rounds_type2": self.q,
            "s_rounds": list(self.s_rounds),
            "t_rounds": list(self.t_rounds),
            "counts": list(self.counts),
            "cells": list(map(list, self.table)),
        }


def _width_cap(n: int, alpha: Fraction) -> int:
    """The widest first row or column that lambda_1 <= n/alpha allows: n*q // p for alpha = p/q."""
    return n * alpha.denominator // alpha.numerator


def check_widths(lam: Partition, alpha: Fraction) -> None:
    """Gate n >= 1, lambda_1 <= n/alpha, then lambda'_1 <= n/alpha (the number of rows).

    Each width gate is the integer test ``width > _width_cap(n, alpha)``.
    """
    n = lam.n
    if n < 1:
        raise HypothesisError("n >= 1", "empty partition")
    cap = _width_cap(n, alpha)
    if lam.part(1) > cap:
        raise HypothesisError("lambda_1 <= n/alpha", f"lambda_1={lam.part(1)}, n={n}")
    if len(lam) > cap:
        raise HypothesisError("lambda'_1 <= n/alpha", f"lambda'_1={len(lam)}, n={n}")


def check_typing_hypotheses(lam: Partition, alpha: Fraction) -> tuple[int, int]:
    """Gate for the typing construction; returns (delta, tau).

    Raises HypothesisError naming the first failing condition.
    """
    alpha = _require_alpha(alpha)
    n = lam.n
    if n < 1:
        raise HypothesisError("n >= 1", "empty partition")
    delta = lam.diagonal()
    if delta < 9 * alpha:
        raise HypothesisError("delta >= 9*alpha", f"delta={delta}, 9*alpha={9 * alpha}")
    check_widths(lam, alpha)
    conj = lam.conjugate()
    for i in range(1, delta):
        if lam.part(i) <= lam.part(i + 1):
            raise HypothesisError(
                "lambda_1 > ... > lambda_delta",
                f"lambda_{i}={lam.part(i)} <= lambda_{i + 1}={lam.part(i + 1)}",
            )
    # every one of the first delta rows must be a corner: row delta must
    # reach the square (>= delta) and stick out past the next row
    if lam.part(delta) < delta:
        raise HypothesisError(
            "lambda_delta >= delta", f"lambda_delta={lam.part(delta)}, delta={delta}"
        )
    if lam.part(delta) <= lam.part(delta + 1):
        raise HypothesisError(
            "row delta is a corner",
            f"lambda_delta={lam.part(delta)} <= lambda_{delta + 1}={lam.part(delta + 1)}",
        )
    tau = 0
    while (
        tau < delta
        and conj.part(tau + 1) > conj.part(tau + 2)
        and conj.part(tau + 2) >= delta
    ):
        tau += 1
    return delta, tau


def cell_typing(lam: Partition, alpha: Fraction) -> CellTyping:
    alpha = Fraction(alpha)
    delta, tau = check_typing_hypotheses(lam, alpha)
    n = lam.n
    rho_val = rho(delta, alpha)
    p, q_ = alpha.numerator, alpha.denominator

    # nums[i][j] and colors[i][j] are the number N and the color of cell
    # (i+1, j+1), 0 until numbered; peel takes the last cell of row i+1 of
    # the running diagram, at index work[i] - 1, and writes both
    work = list(lam.parts)
    code = lane_code(n)
    zero = array(code, [0])
    nums = [zero * row for row in work]
    colors = [zero * row for row in work]
    counter = 0

    def peel(rows: Sequence[int], color: int) -> None:
        nonlocal counter
        for i in rows:  # top to bottom
            counter += 1
            work[i] -= 1
            nums[i][work[i]], colors[i][work[i]] = counter, color

    # type 1: full corner-peeling rounds while at least 2*alpha corners
    # remain, that is at least m2 = ceil(2*alpha); cell by cell only while
    # some nonempty row is not a corner
    m2 = -(-2 * p // q_)
    s_rounds: list[int] = []
    corners = corner_rows(work)
    while len(corners) >= m2 and len(corners) <= corners[-1]:
        s_rounds.append(len(corners))
        peel(corners, len(s_rounds))
        corners = corner_rows(work)
    # Now every nonempty row is a corner, and stays one as each round peels
    # them all: round r peels k_r = #{i : w_i >= r} cells of the running
    # rows w, while k_r >= m2, that is for r <= w[m2-1].  Row i's cell of
    # round r gets the number counter + k_1 + ... + k_(r-1) + i + 1, so
    # starts[r-1] + i, and the color len(s_rounds) + r: a row peels its last
    # `peeled` cells, read off the ends of the reversed starts and colors.
    rounds = work[m2 - 1] if len(corners) >= m2 else 0
    if rounds:
        ks: list[int] = []  # ks[r-1] = k_r, the running rows' conjugate
        for i in range(len(corners), 0, -1):
            ks += [i] * (min(work[i - 1], rounds) - len(ks))
        starts = list(accumulate(ks, initial=counter + 1))
        firsts = memoryview(array(code, starts[-2::-1]))
        falling = array(code, range(len(s_rounds) + rounds, len(s_rounds), -1))
        for i, w in enumerate(work[: ks[0]]):
            peeled = min(w, rounds)
            nums[i][w - peeled : w] = array(code, _row_sum(i, firsts[-peeled:]))
            colors[i][w - peeled : w] = falling[-peeled:]
            work[i] = w - peeled
        s_rounds += ks
        counter = starts[-1] - 1
    r = len(s_rounds)
    after1 = work[:]

    # type 2: peel only corners outside the delta x delta square while >= alpha
    t_rounds: list[int] = []
    while True:
        outside = [i for i in corner_rows(work) if i >= delta or work[i] > delta]
        if len(outside) * q_ < p:
            break
        t_rounds.append(len(outside))
        peel(outside, r + len(t_rounds))
    q = len(t_rounds)
    after2 = work[:]

    mu = Partition(tuple(w for w in work if w > 0))
    mu_conj = mu.conjugate()

    # type 3: shells of mu outside the (delta+rho) square, outermost first.
    # A column segment takes the last cell left in each of its rows: the
    # outer shells took the columns past m, and no row up to delta is the
    # row segment of a shell (m > delta)
    k_max = max(mu.part(1), mu_conj.part(1)) if mu else 0
    inner = delta + rho_val
    ascending = memoryview(array(code, range(1, lam.part(1) + 1)))
    for m in range(k_max, inner, -1):
        row_len, col_len = mu.part(m), mu_conj.part(m)
        if row_len > delta or col_len > delta:
            raise ConsistencyError(
                f"shell {m} reaches past column/row delta; diagram has a cell "
                f"with both coordinates above delta"
            )
        if row_len:
            nums[m - 1][:row_len] = array(code, _row_sum(counter, ascending[:row_len]))
            colors[m - 1][:row_len] = array(code, [m]) * row_len
            counter += row_len
            work[m - 1] = 0
        peel(range(col_len), m)

    # type 4: whatever remains, numbered last in row-major order
    t123 = counter
    for i, w in enumerate(work):
        if w:
            nums[i][:w] = array(code, _row_sum(counter, ascending[:w]))
            counter += w
    if counter != n:
        raise ConsistencyError(f"numbered {counter} cells of {n}")

    # every phase peels from the right end of a row, so a row holds its
    # type-4, 3, 2 and 1 cells left to right, cut at the rows after types
    # 3, 2 and 1.  Each column's rows are freed once joined.  The hook of
    # cell (i, j) is (lambda_i - j + 1) + (lambda'_j - i)
    types = b"".join(
        b"\4" * w3 + b"\3" * (w2 - w3) + b"\2" * (w1 - w2) + b"\1" * (row - w1)
        for row, w1, w2, w3 in zip(lam.parts, after1, after2, work)
    )
    colors = b"".join(colors)
    nums = b"".join(nums)
    widths = memoryview(array(code, range(lam.part(1), 0, -1)))
    cols = memoryview(array(code, lam.conjugate().parts))
    hooks = b"".join(_row_sum(-i, widths[-row:], cols[:row]) for i, row in enumerate(lam.parts, 1))
    t1, t2 = sum(s_rounds), sum(t_rounds)
    typing = CellTyping(
        partition=lam,
        alpha=alpha,
        delta=delta,
        rho=rho_val,
        tau=tau,
        r=r,
        q=q,
        s_rounds=tuple(s_rounds),
        t_rounds=tuple(t_rounds),
        counts=(t1, t2, t123 - t1 - t2, n - t123),
        table=CellTable(lam.parts, types, colors, nums, hooks),
        mu=mu,
    )
    # the table now holds every cell: free the construction's columns
    # before the check scatters the hooks to a list of its own
    del types, colors, nums, hooks
    _check_typing(typing, t123)
    return typing


def _row_sum(offset: int, *rows: memoryview) -> bytes:
    """The bytes of the rows' entrywise sums plus ``offset``, in the rows' lane.

    The rows are buffers of one signed array code and one length, entries
    of w = 8 * itemsize bits.  Each is read as one integer over its bytes
    in ``sys.byteorder``, so each entry is a digit in base 2**w, at the
    same place in every row, and ``offset`` times the integer whose digits
    are all 1 adds ``offset`` to every digit.  Integer arithmetic is exact,
    so the total is the sum over the places k of (e_k + offset) * 2**(w*k),
    e_k the sum of the rows' entries at k; only reading and writing need
    the entries' range.  An entry in [0, 2**(w-1)) reads the same unsigned
    as signed.  When every result e_k + offset lies in [0, 2**(w-1)) too,
    each is a digit, no place carries into or borrows from the next, and
    the total's bytes are the results, read back as the same signed
    values.  Every entry and result that the typing adds is a cell number,
    a row or column length or a hook, in 1..n, and its lane
    ``lane_code(n)`` has n < 2**(w-1).
    """
    order, count, size = sys.byteorder, len(rows[0]), rows[0].itemsize
    total = offset * _lane_ones(count, size)
    for row in rows:
        total += int.from_bytes(row, order)
    return total.to_bytes(size * count, order)


def _lane_ones(count: int, size: int) -> int:
    """The integer whose ``count`` digits of ``size`` bytes are all 1."""
    return int.from_bytes((b"\1" + bytes(size - 1)) * count, "little")


def _widen(column, size: int, order: str) -> int:
    """The entries of ``column``, read unsigned in byte order ``order``, as ``size``-byte digits.

    ``column`` is an array of entries of ``column.itemsize < size`` bytes.
    Each byte place of an entry is one strided copy into the zeroed lanes:
    the low end of a lane is its first byte little-endian and its last
    byte big-endian.  Entry k is digit k little-endian, and digit
    ``len(column) - 1 - k`` big-endian.
    """
    width = column.itemsize
    # a strided copy from bytes runs several times faster than from a view
    lanes, data = bytearray(size * len(column)), column.tobytes()
    low = 0 if order == "little" else size - width
    for j in range(width):
        lanes[low + j :: size] = data[j::width]
    return int.from_bytes(lanes, order)


def _above(lanes: int, bound: int, ones: int, bits: int) -> int:
    """The digits ``[e > bound]`` of the ``bits``-bit digits e of ``lanes``.

    With every digit e and ``bound`` in [0, 2**(bits-1)), the digit
    e + 2**(bits-1) - 1 - bound lies in [0, 2**bits), so nothing carries,
    and it reaches the top bit of its lane exactly when e > bound.
    """
    guard = bits - 1
    return (lanes + ((1 << guard) - 1 - bound) * ones) >> guard & ones


def _types_follow_runs(numbers, types, bounds: Sequence[int], order: str) -> bool:
    """Whether every cell's type is 1 plus the number of ``bounds`` below its number N.

    ``numbers`` and ``types`` are the row-major columns, read in byte order
    ``order``; every N and every bound lies in [0, 2**(w-1)), w the bits
    of a number.  The numbers are read as one integer, each bound is one
    ``_above`` of it, and the types are widened to the numbers' lanes.
    """
    size = numbers.itemsize
    ones = _lane_ones(len(numbers), size)
    nums = int.from_bytes(numbers, order)
    runs = ones + sum(_above(nums, bound, ones, 8 * size) for bound in bounds)
    return runs == _widen(types, size, order)


def _counter_holds(numbers, hooks, below: int, t: int, n: int, p: int, q: int, order: str) -> bool:
    """Whether ``p*h <= q*N`` for every cell numbered ``below < N <= t``.

    ``numbers`` and ``hooks`` are row-major columns of one array code, as
    a ``CellTable`` keeps them.  Every N lies in 1..n, and
    ``0 <= below <= t <= n``; a hook h is read unsigned, in [0, H) with
    H = 2**(8 * its itemsize).  In lanes of
    ``bits`` bits, 2**(bits-1) > q*n + p*H, each cell's digit is
    ``q*N - p*h + 2**(bits-1)``, plus ``p*H`` for a cell outside
    ``below+1..t``: it lies in [0, 2**bits), so nothing carries, and its
    top bit is set exactly when the cell is outside or meets the clause.
    """
    hook_bits = 8 * hooks.itemsize
    size = (q * n + (p << hook_bits)).bit_length() // 8 + 1
    bits = 8 * size
    ones = _lane_ones(len(numbers), size)
    nums = _widen(numbers, size, order)
    outside = _above(nums, t, ones, bits) - _above(nums, below, ones, bits) + ones
    # built a term at a time, so that few integers of the lanes' size live at once
    lanes = (p << hook_bits) * outside
    del outside
    lanes += q * nums
    del nums
    lanes -= p * _widen(hooks, size, order)
    top = ones << bits - 1
    lanes += top
    return lanes & top == top


def _check_typing(ct: CellTyping, t123: int) -> None:
    n = ct.n
    p, q = ct.alpha.numerator, ct.alpha.denominator
    table = ct.table
    numbers = table.numbers
    order = sys.byteorder

    # the lane tests below need every number of 1..n to fit its lane
    if not len(table.types) == len(table.colors) == len(numbers) == len(table.hooks) == n or (
        n >> 8 * numbers.itemsize - 1
    ):
        raise ConsistencyError("typing columns do not hold one entry per cell")
    # hook_of[N] is the hook of the cell numbered N (slot 0 unused); with
    # every number in 0..n, the numbering is a bijection onto 1..n when no
    # slot 1..n is left empty.  Read as unsigned, a number below 0 lies past
    # n like one above n, and the scatter raises IndexError for either
    hook_of = [None] * (n + 1)
    unsigned = memoryview(numbers).cast("B").cast(numbers.typecode.upper())
    try:
        # setitem returns None, so any() runs the whole map
        any(map(setitem, repeat(hook_of), unsigned, table.hooks))
        bijection = None not in islice(hook_of, 1, None)
    except IndexError:
        bijection = False
    if not bijection:
        raise ConsistencyError("numbering is not a bijection onto 1..n")
    if sum(ct.counts) != n:
        raise ConsistencyError("types do not partition the diagram")
    # 1..n cut into runs of counts[0] 1s, counts[1] 2s, counts[2] 3s and
    # counts[3] 4s: every cell must have the type of the run of its number,
    # 1 plus the number of the first three run ends below it
    if min(ct.counts) < 0 or not _types_follow_runs(
        numbers, table.types, list(accumulate(ct.counts[:3])), order
    ):
        types = table.types
        by_type = ((t, list(compress(numbers, map(eq, types, repeat(t))))) for t in (1, 2, 3, 4))
        present = [(t, nums) for t, nums in by_type if nums]
        for (lo, a), (hi, b) in zip(present, present[1:]):
            if max(a) >= min(b):
                raise ConsistencyError(f"type-{lo} numbers overlap type-{hi} numbers")
        raise ConsistencyError("types do not partition the diagram")

    # alpha = p/q with q > 0, so every test below is cleared to integers
    if ct.s_rounds and ct.s_rounds[0] < ct.delta:
        raise ConsistencyError(f"first round removed {ct.s_rounds[0]} < delta corners")
    for s in ct.s_rounds[1:]:
        if s * q < 2 * p:
            raise ConsistencyError("type-1 round ran with fewer than 2*alpha corners")
    for t in ct.t_rounds:
        if t * q < p:
            raise ConsistencyError("type-2 round ran with fewer than alpha corners")

    # The type-1/2/3 cells are those numbered 1..t.  The ones numbered N
    # below alpha are held to h <= N, a hook slice against a range of N;
    # the rest to the counter inequality p*h <= q*N, which implies h <= N
    # as p > q, by one lane test over the table.  A failure walks the cells
    # to name the first bad one.  Then the aggregate product that the
    # degree bound uses.
    t = n - ct.counts[3]
    below = min(-(-p // q) - 1, t)
    if not all(map(le, islice(hook_of, 1, below + 1), range(1, below + 1))) or not (
        _counter_holds(numbers, table.hooks, below, t, n, p, q, order)
    ):
        _raise_first_bad_cell(ct.table, p, q)
    if not _aggregate_holds(hook_of, t, t123, p, q):
        raise ConsistencyError("aggregate product over type-1/2/3 cells below alpha^|T123|")

    # type-1 mass: |T1| >= 2*alpha*r + alpha*delta
    if ct.counts[0] * q < p * (2 * ct.r + ct.delta):
        raise ConsistencyError(
            f"|T1|={ct.counts[0]} below 2*alpha*r + alpha*delta with r={ct.r}, delta={ct.delta}"
        )

    # type-4 budget and falling-factorial product
    t4 = ct.counts[3]
    if t4 * q > ct.delta**2 * q + p * ct.rho:
        raise ConsistencyError(f"|T4|={t4} exceeds delta^2 + alpha*rho")
    if _product_tree(hook_of[t + 1 :]) > math.perm(n, t4):
        raise ConsistencyError("type-4 hook product exceeds the falling factorial")


_T123 = frozenset((1, 2, 3))


def _raise_first_bad_cell(table: CellTable, p: int, q: int) -> None:
    """Raise for the first type-1/2/3 cell, in cell order, with h > N or alpha*h > N >= alpha."""
    for row, col, cell_type, _, num, h in table:
        if cell_type in _T123 and (h > num or num * q >= p and p * h > q * num):
            clause = "h <= N" if h > num else "alpha*h <= N"
            raise ConsistencyError(f"{clause} fails at cell ({row},{col}) with N={num}, h={h}")


# how many cells numbered from t down may cover the shortfall of the cells
# below alpha before the aggregate product is decided over all cells
_COVER_CELLS = 8


def _aggregate_holds(hook_of: Sequence[int], t: int, e: int, p: int, q: int) -> bool:
    """Decide ``t! * q**e >= p**e * prod(hook_of[1:t + 1])`` for t, e >= 0.

    ``hook_of[N]`` is the hook of the cell numbered N, and each cell with
    N*q >= p must meet p*h <= q*N: its factor q*N/(p*h) of the product is
    at least 1.  So the product holds once the exact factors of a few such
    cells, from N = t down, cover the shortfall of the cells below alpha
    (with the factor (q/p)**(e - t) when e != t).  Only when they do not
    does ``powers_ge`` decide it, over ``t!`` and the hook multiset.
    """
    below = min(-(-p // q) - 1, t)
    need = Fraction(p, q) ** (e - t + below) * Fraction(
        math.prod(hook_of[1 : below + 1]), math.factorial(below)
    )
    lhs, rhs = need.denominator, need.numerator
    for num in range(t, max(t - _COVER_CELLS, below), -1):
        if lhs >= rhs:
            return True
        lhs *= q * num
        rhs *= p * hook_of[num]
    return lhs >= rhs or powers_ge(
        ((factorial_ball(t), 1), (q, e)), ((p, e), *Counter(hook_of[1 : t + 1]).items()), None
    )
