"""Integer partitions and Young diagrams with exact combinatorics.

Partitions are stored as weakly decreasing tuples of positive parts (no
trailing zeros); ``part(i)`` reads as 0 beyond the stored length, so
expressions like "lambda_{k+1} <= l" work for short partitions.  All values
are immutable and all operations are pure functions, so everything here is
safe to share across threads.

Cell coordinates are 1-based ``(row, col)``.  The text formats used by the
CLI and report files live here too: partitions are comma-separated part
lists ("9,6,4,2,2,1", empty string for the empty partition) and rationals
are "p/q" or "p" strings, kept exact via ``fractions.Fraction``.

Counting and exact-uniform sampling read one count table.  Let P(u, k)
count the partitions of u with parts <= k, and Q(x, k) the sum of
P(t, min(k, t)) over t <= x.  A box ``(r, c, s)`` (partitions of r with
parts <= c and at most s parts, with c, s <= r) is *loose* when
r <= 2s + 1, and then it counts P(r, c) - Q(r - s - 1, c - 1), one
inclusion-exclusion term of the Gaussian polynomials (Andrews, *The
Theory of Partitions*, ch. 3).  Proof: conjugation turns the partitions
with parts <= c and at least s + 1 parts into those with first part
a >= s + 1 and at most c parts; since r - a <= s < a, the rest is any
partition of r - a into at most c - 1 parts, and there are P(r - a, c - 1)
of those.  The triangles grow row by row in increasing u, without
recursion: P up to the largest r asked for, Q up to the largest
r - s - 1.  A walk that unranks from a loose box stays loose: a part
p >= 2 leaves rem - p <= 2(slots - 1) + 1, and after a part 1 every part
is 1.  So each part is one bisection of a row built on the spot and not
stored.  Every box of width n/alpha with alpha <= 2 is loose, since then
s = floor(n/alpha) >= floor(n/2), so ``constrained_sample`` there stores
about n^2 entries and never recurses.

A tight box (r > 2s + 1) keeps the row recurrence: one row of prefix
sums per ``(rem, slots)`` with ``slots <= rem``, where
``row[c] = row[c-1] + count(rem-c, c, slots-1)``.  Each entry costs O(1)
amortised.  The fill recurses one level per part, so a tight box past the
interpreter's recursion limit raises ``DepthLimitError``.  Rows and
triangles grow under one lock, so the table is safe to share across
threads too.
"""
from __future__ import annotations

import operator
import random
import re
import sys
import threading
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, repeat
from typing import Iterator, Sequence

from .errors import DepthLimitError, EmptySampleSpaceError, HookBoundError


class Partition:
    """A partition of n, identified with its Young diagram of left-justified rows.

    Immutable: ``parts`` and its sum ``n`` are stored once, at construction.
    """

    __slots__ = ("parts", "n")

    parts: tuple[int, ...]
    n: int

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(map(int, parts))
        if parts and not (parts[-1] >= 1 and all(map(operator.ge, parts, parts[1:]))):
            # only an invalid input gets here: find its first bad part for the message
            prev = None
            for p in parts:
                if p < 1:
                    raise HookBoundError(f"parts must be positive, got {p} in {parts}")
                if prev is not None and p > prev:
                    raise HookBoundError(f"parts must be weakly decreasing, got {parts}")
                prev = p
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Partition, (self.parts,)

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

    # -- construction and text format ------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the comma-separated text format; "" is the empty partition."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise HookBoundError(f"cannot parse partition {text!r}") from exc
        return cls(parts)

    def format(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __str__(self) -> str:
        return self.format() if self.parts else "(empty)"

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    # -- basic structure ---------------------------------------------------

    def part(self, i: int) -> int:
        """1-based part access; 0 beyond the stored parts."""
        if i < 1:
            raise HookBoundError(f"part index must be >= 1, got {i}")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells ``(row, col)`` in row-major order."""
        for i, row in enumerate(self.parts, start=1):
            for j in range(1, row + 1):
                yield i, j

    # -- diagram operations -------------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: part j of the result is the length of column j.

        Columns parts[i]+1 .. parts[i-1] all have length i, so the result is
        filled run by run from the bottom row up.
        """
        cols: list[int] = []
        below = 0
        for i in range(len(self.parts), 0, -1):
            p = self.parts[i - 1]
            cols += [i] * (p - below)
            below = p
        return Partition(tuple(cols))

    def hook_grid(self) -> dict[tuple[int, int], int]:
        """Hook lengths of every cell ``(row, col)``, computed in one pass."""
        conj = self.conjugate().parts
        return {
            (i, j): (row - j) + (conj[j - 1] - i) + 1
            for i, row in enumerate(self.parts, start=1)
            for j in range(1, row + 1)
        }

    def diagonal(self) -> int:
        """Side of the largest square diagram contained in this one.

        The Durfee side: ``lambda_i - i`` strictly decreases, so the rows with
        ``lambda_i >= i`` are exactly the square's rows.
        """
        return sum(map(operator.ge, self.parts, range(1, len(self.parts) + 1)))

    def contains(self, other: "Partition") -> bool:
        """True iff ``other`` fits inside this diagram row by row."""
        if len(other.parts) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(other.parts, self.parts))


def corner_rows(parts: Sequence[int]) -> list[int]:
    """0-based indices of the rows that end in a corner, top to bottom.

    A row ends in a corner when it is longer than the row below it.
    ``parts`` may end in zeros, as the rows of a diagram being peeled do.
    """
    return list(compress(count(), map(operator.gt, parts, [*parts[1:], 0])))


# -- text format for exact rationals ----------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; rejects decimal and float forms."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise HookBoundError(f"cannot parse rational {text!r} (expected p or p/q)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise HookBoundError(f"cannot parse rational {text!r} (zero denominator)") from None


def format_rational(value: Fraction | int) -> str:
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# -- enumeration, counting, exact-uniform sampling ---------------------------


def enumerate_partitions(
    n: int, max_part: int | None = None, max_parts: int | None = None
) -> Iterator[Partition]:
    """All partitions of n within the bounds, in reverse lexicographic order.

    Reverse lexicographic means (4), (3,1), (2,2), (2,1,1), (1,1,1,1):
    partitions with larger leading parts come first.
    """
    if n < 0:
        raise HookBoundError("n must be non-negative")
    cap = n if max_part is None else min(max_part, n)
    slots = n if max_parts is None else max_parts

    def gen(rem: int, cap: int, slots: int, prefix: list[int]) -> Iterator[Partition]:
        if rem == 0:
            yield Partition(tuple(prefix))
            return
        if cap <= 0 or slots <= 0:
            return
        low = -(-rem // slots)
        for p in range(min(cap, rem), low - 1, -1):
            prefix.append(p)
            yield from gen(rem - p, p, slots - 1, prefix)
            prefix.pop()

    yield from gen(n, cap, slots, [])


@lru_cache(maxsize=None)
def _count(rem: int, slots: int) -> list[int]:
    """Row ``(rem, slots)`` of the count table, for 1 <= slots <= rem.

    Entry ``c`` is the number of partitions of ``rem`` with parts <= c and
    at most ``slots`` parts.  A row starts as ``[0]``; ``_table`` extends it
    on demand, and ``_grow`` completes the rows ``(u, u)``, which are the
    rows of P.  An entry is appended only once its value is known.
    """
    return [0]


# _p_rows[u] holds P(u, k) for k <= u, the partitions of u with parts <= k;
# for u >= 1 it is the row (u, u) of _count.  _q_rows[x] holds
# Q(x, k) = sum of P(t, min(k, t)) over t <= x, for k <= x.  Both lists
# hold complete rows and are only ever appended to.
_p_rows: list[list[int]] = [[1]]
_q_rows: list[list[int]] = [[1]]


def _grow(n: int, x: int) -> None:
    """Complete the rows of P through n and of Q through x, in increasing u.

    Row u of P is the row recurrence with ``slots = u``: entry c adds
    P(u-c, min(c, u-c)), from rows that are already complete, so a row is
    one ``accumulate`` over two maps and nothing recurses.  A row begun by
    ``_table`` is completed in place.  Row t of Q is row t of P added to
    row t-1 of Q padded with its last entry.
    """
    for u in range(len(_p_rows), n + 1):
        h = u // 2
        added = chain(
            map(operator.getitem, _p_rows[u - 1 : u - h - 1 : -1], range(1, h + 1)),
            map(operator.itemgetter(-1), _p_rows[u - h - 1 :: -1]),
        )
        row = _count(u, u)
        row.extend(islice(accumulate(added, initial=0), len(row), None))
        _p_rows.append(row)
    for t in range(len(_q_rows), x + 1):
        prev = _q_rows[-1]
        _q_rows.append(list(map(operator.add, chain(prev, prev[-1:]), _p_rows[t])))


def _loose_row(rem: int, cap: int, slots: int) -> list[int]:
    """Entries 0..cap of row ``(rem, slots)`` when ``rem <= 2*slots + 1``.

    Entry c is P(rem, c) - Q(rem - slots - 1, c - 1).  The row is built on
    the spot and not stored; with ``slots == rem`` it is the row of P.
    """
    x = rem - slots - 1
    if x < 0:
        return _p_rows[rem]
    q = _q_rows[x]
    subtracted = chain((0,), q[:cap], repeat(q[-1]))
    return list(map(operator.sub, _p_rows[rem][: cap + 1], subtracted))


def _table(rem: int, cap: int, slots: int) -> int:
    """Partitions of rem with parts <= cap and at most slots parts, by rows.

    ``_guarded_count`` calls this only for a tight box; its sub-rows may
    be loose and are filled the same way.  Entry c of the row adds the
    partitions whose first part is c:
    row[c] = row[c-1] + count(rem-c, c, slots-1).  The added count is zero
    below ceil(rem/slots), so those entries are appended in one step, and
    one at c = rem.  Every other one is entry ``min(c, r)`` of the sub-row
    ``(r, min(slots-1, r))``, r = rem-c, normalised inline and read straight
    from that row; only a sub-row too short to hold it recurses, once per
    part, so the depth is at most min(rem, slots).  All three arguments are
    at least 1: ``_guarded_count`` returns early otherwise, and a recursive
    call has r >= 1, k >= 1 and, as it runs only for slots >= 2, s >= 1.
    """
    cap = min(cap, rem)
    slots = min(slots, rem)
    row = _count(rem, slots)
    if len(row) <= cap:
        total = row[-1]
        low = -(-rem // slots)
        if len(row) < low:
            row.extend([total] * (min(low, cap + 1) - len(row)))
        # with slots == 1, low == rem leaves only the entry c == rem
        s = slots - 1
        for c in range(len(row), cap + 1 if cap < rem else rem):
            r = rem - c
            sub = _count(r, s if s < r else r)
            k = c if c < r else r
            total += sub[k] if k < len(sub) else _table(r, k, s)
            row.append(total)
        if cap == rem:
            row.append(total + 1)
    return row[cap]


_TABLE_LOCK = threading.Lock()


def _guarded_count(n: int, cap: int, slots: int) -> int:
    """Count of the box behind a lock: the closed form when it is loose.

    A tight box (``n > 2*slots + 1``) takes ``_table``, with a named error
    at the recursion limit.
    """
    if n <= 0 or cap <= 0 or slots <= 0:
        return int(n == 0)
    cap, slots = min(cap, n), min(slots, n)
    try:
        with _TABLE_LOCK:
            if n > 2 * slots + 1:
                return _table(n, cap, slots)
            _grow(n, n - slots - 1)
            return _loose_row(n, cap, slots)[cap]
    except RecursionError:
        raise DepthLimitError(
            "partition count table", n, slots, sys.getrecursionlimit()
        ) from None


def count_partitions(n: int, max_part: int | None = None, max_parts: int | None = None) -> int:
    """Exact number of partitions of n within the bounds (big-integer DP)."""
    if n < 0:
        raise HookBoundError("n must be non-negative")
    cap = n if max_part is None else min(max_part, n)
    slots = n if max_parts is None else max_parts
    return _guarded_count(n, cap, slots)


def unrank_partition(n: int, max_part: int, max_parts: int, rank: int) -> Partition:
    """The rank-th partition of the constrained set in reverse-lexicographic order.

    Walks the same count table the enumeration order follows, so unranking
    the ranks 0..count-1 reproduces ``enumerate_partitions`` exactly.  The
    ranks with first part p are a block of ``row[p] - row[p-1]`` counted
    from the top of the row, so each part is one bisection of its row.
    """
    total = _guarded_count(n, max_part, max_parts)
    if not 0 <= rank < total:
        raise HookBoundError(f"rank {rank} outside 0..{total - 1}")
    parts: list[int] = []
    rem, cap, slots = n, max_part, max_parts
    # a walk from a loose box stays loose: a part p >= 2 leaves
    # rem - p <= 2*(slots-1) + 1, and after a part 1 every part is 1
    loose = n <= 2 * slots + 1
    while rem > 0:
        cap = min(cap, rem)
        slots = min(slots, rem)
        # counting the total grew the triangles through n, or extended every
        # row of _count this walk reads through cap
        row = _loose_row(rem, cap, slots) if loose else _count(rem, slots)
        above = row[cap] - rank
        p = bisect_left(row, above, 1, cap + 1)
        rank = row[p] - above
        parts.append(p)
        rem -= p
        cap = p
        slots -= 1
    return Partition(tuple(parts))


def sample_partition(n: int, max_part: int, max_parts: int, seed: int) -> Partition:
    """Exact-uniform sample over the constrained set by count-table unranking.

    ``randrange`` over the exact big-integer count composed with the
    unranking bijection gives exact uniformity; deterministic for a fixed
    seed.  Raises when no partition satisfies the bounds.
    """
    if n < 1:
        raise HookBoundError("n must be positive")
    total = _guarded_count(n, max_part, max_parts)
    if total == 0:
        raise EmptySampleSpaceError(
            f"no partition of {n} with parts <= {max_part} and length <= {max_parts}"
        )
    rank = random.Random(seed).randrange(total)
    return unrank_partition(n, max_part, max_parts, rank)
