"""Exception types shared across the package."""


class HookBoundError(Exception):
    """Base class for all errors raised by this package."""


class EmptySampleSpaceError(HookBoundError):
    """No partition satisfies the requested sampling constraints."""


class GuardExceededError(HookBoundError):
    """An input passed a hard size guard: a brute-force oracle's, or the prime
    sieve's ``degrees.SIEVE_CAP``, which every degree, degree ball and
    factorial ball reads up to its n."""

    def __init__(self, what, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(f"{what}: n={n} exceeds guard n<={limit}")


class DepthLimitError(HookBoundError):
    """A recursive computation on n ran past the interpreter's recursion limit."""

    def __init__(self, what, n, depth, limit):
        self.n = n
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"{what}: n={n} needs recursion depth up to {depth}, "
            f"past the interpreter's recursion limit {limit}"
        )


class HypothesisError(HookBoundError):
    """A bound was requested on input violating its stated hypotheses.

    ``condition`` names the first failing hypothesis.
    """

    def __init__(self, condition, detail=""):
        self.condition = condition
        msg = f"hypothesis violated: {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ConsistencyError(HookBoundError):
    """An internal invariant of a certified construction failed.

    This signals a bug in the construction (or an input outside the regime
    where the construction is sound), never a legitimate FAIL verdict.
    """
