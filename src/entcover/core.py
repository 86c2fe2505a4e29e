"""Ground sets, polymatroid oracles, covers, and the entropy objective.

Conventions used throughout the package:

* Elements of a ground set are the integers ``0 .. m-1``.
* Subsets are plain Python ints used as bitmasks (bit ``j`` set means
  element ``j`` is in the subset); Python ints are unbounded, so ``m``
  is too.  Exhaustive checks carry their own size guards.
* A polymatroid is a function ``f`` on subsets that is normalized
  (``f(empty) == 0``), monotone and submodular, with nonnegative
  integer values.
* A cover of ``f`` is a nonnegative integer vector ``x`` of length
  ``m`` with ``sum(x) == f(U)`` and ``sum(x[j] for j in S) <= f(S)``
  for every subset ``S``.
* Entropy is measured in bits (base-2 logarithm), with the convention
  ``0 * log(0) == 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import gt
from typing import Callable, List, Optional, Sequence, Tuple

LOG2E = math.log2(math.e)
VALIDATE_MAX_M = 24  # validate_cover reads all 2^m subsets
GUARD_MSG = "instance too large for exact solver"


class GuardError(ValueError):
    """An instance exceeds a size guard of an exact solver or exhaustive
    check; the message contains GUARD_MSG."""


@dataclass(frozen=True)
class GroundSet:
    """The set U of elements (players), identified by indices 0..m-1."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"ground set size must be at least 1, got {self.m}")

    @property
    def universe(self) -> int:
        """Bitmask of the full ground set."""
        return (1 << self.m) - 1


class PolymatroidOracle:
    """Wraps a pure subset function f with memoization.

    The callable must be deterministic and side-effect-free; values are
    cached, so impure functions would give inconsistent reads.  The
    polymatroid axioms are NOT verified here — use
    :func:`check_polymatroid` for that (it is exponential in m).
    """

    def __init__(self, ground: GroundSet, fn: Callable[[int], int]) -> None:
        self.ground = ground
        self._fn = fn
        self._cache: dict[int, int] = {}

    @property
    def m(self) -> int:
        return self.ground.m

    def eval(self, mask: int) -> int:
        if mask >> self.ground.m:
            raise ValueError("subset mask outside the ground set")
        v = self._cache.get(mask)
        if v is None:
            v = self._fn(mask)
            self._cache[mask] = v
        return v

    def total(self) -> int:
        """f(U) — the amount every cover must allocate."""
        return self.eval(self.ground.universe)

    def table(self) -> List[int]:
        """f at every subset mask, in mask order: 2^m reads through eval
        and its cache.  The family oracles of instances.py override it
        with a subset recursion over their masks, which reads no cache."""
        return [self.eval(mask) for mask in range(1 << self.ground.m)]

    def gains(self, base: int) -> List[int]:
        """Every marginal gain f(base + j) - f(base), j = 0..m-1; it is 0
        for j in base.  Read through eval and its cache; the family
        oracles of instances.py override it with a closed form on the
        state they keep along a growing chain of bases."""
        f_base = self.eval(base)
        return [self.eval(base | 1 << j) - f_base for j in range(self.ground.m)]

    def gain(self, base: int, j: int) -> int:
        """The one marginal gain f(base + j) - f(base); 0 for j in base.
        Read through eval here; the family oracles override it too."""
        if not 0 <= j < self.ground.m:
            raise ValueError("subset mask outside the ground set")
        return self.eval(base | 1 << j) - self.eval(base)


@dataclass(frozen=True)
class Cover:
    """An integer allocation vector x with sum(x) = f(U)."""

    x: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.x)


def entropy(cover: Cover) -> float:
    """Shannon entropy of the normalized cover, in bits.

    Zero entries contribute nothing (0*log 0 = 0).  Raises on an empty
    allocation, which has no associated distribution.
    """
    n = cover.total
    if n <= 0:
        raise ValueError("degenerate cover")
    # fsum: the result is independent of term order, so permuting the
    # cover permutes nothing; 0.0 - x, unlike -x, gives +0.0, not -0.0,
    # for a cover with one nonzero entry
    return 0.0 - math.fsum((v / n) * math.log2(v / n) for v in cover.x if v)


def weight_product(x: Sequence[int]) -> int:
    """The exact integer prod_j x_j^{x_j} (0^0 = 1).

    Entropy of a cover with total n equals log2(n) - log2(weight)/n, a
    strictly decreasing function of this weight; integer weights give
    exact entropy comparisons between covers with equal totals.
    """
    w = 1
    for v in x:
        if v:
            w *= v ** v
    return w


def entropy_from_weight(weight: int, n: int) -> float:
    if n <= 0:
        raise ValueError("degenerate cover")
    if weight <= 0:
        raise ValueError("weight must be positive")
    # math.log2 takes an int of any size; clamp the rounding noise of the
    # subtraction (entropy is nonnegative)
    return max(0.0, math.log2(n) - math.log2(weight) / n)


def validate_cover(oracle: PolymatroidOracle, cover: Cover) -> Tuple[bool, Optional[int]]:
    """Exhaustively check the cover constraints against the oracle.

    Returns ``(True, None)`` when valid, else ``(False, witness)`` where
    witness is the first violated subset in ascending bitmask order
    (the full universe for a totality violation, a singleton for a
    negative entry).  Cost is Theta(2^m), so ground sets larger than
    VALIDATE_MAX_M are refused.  entcover greedy runs it only when its
    cover does not match the linear-time realisation of
    instances.realise_cover.  The exact solvers check no optimum: on a
    polymatroid each is a chain's vector, hence a valid cover.
    """
    m = oracle.m
    if len(cover.x) != m:
        raise ValueError("cover length does not match ground set")
    if m > VALIDATE_MAX_M:
        raise GuardError(f"{GUARD_MSG}: exhaustive validation infeasible")
    for j, v in enumerate(cover.x):
        if v < 0:
            return False, 1 << j
    if cover.total != oracle.total():
        return False, oracle.ground.universe
    witness = subset_violation(oracle.table(), cover.x)
    return witness is None, witness


def subset_violation(table: Sequence[int], x: Sequence[int]) -> Optional[int]:
    """The first nonempty subset S, in ascending bitmask order, with
    sum(x[j] for j in S) > table[S], or None.  ``table`` holds f at every
    subset mask of a ground set of len(x) elements."""
    sums = [0]  # x(S) for every S, built one element at a time
    for v in x:
        sums += list(map(v.__add__, sums))
    if not any(map(gt, sums, table)):
        return None
    return next((s for s in range(1, len(sums)) if sums[s] > table[s]), None)


def check_polymatroid(oracle: PolymatroidOracle) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Exhaustively verify normalization, monotonicity and submodularity.

    Uses the local characterizations (equivalent to the global ones):

    * monotone   iff f(S) <= f(S + i)           for all S, i not in S
    * submodular iff f(S+i) + f(S+j) >= f(S+i+j) + f(S)   for all S, i<j not in S

    Returns ``(True, None)`` or ``(False, (S, T))`` where (S, T) is a
    concrete counterexample pair: f(S) + f(T) < f(S|T) + f(S&T) for a
    submodularity failure, S ⊆ T with f(S) > f(T) for a monotonicity
    failure, (0, 0) for f(empty) != 0, and (S, S) for a non-integer or
    negative f(S).
    """
    m = oracle.m
    if m > 16:
        raise GuardError(f"{GUARD_MSG}: ground set too large for "
                         f"exhaustive polymatroid check")
    witness = polymatroid_violation(oracle.table())
    return witness is None, witness


def polymatroid_violation(table: Sequence[int]) -> Optional[Tuple[int, int]]:
    """check_polymatroid's counterexample pair for the set function held
    in ``table`` (f at every subset mask, in mask order), or None.

    For each element i the marginals d_i(S) = f(S + i) - f(S), S without
    i, are tested at once: monotonicity is d_i >= 0, then local
    submodularity is d_i(S) >= d_i(S + j) for each j > i, in that order.
    The table is packed into one int, f(S) in lane S of k bytes, with a
    guard bit G above max f at the top of each lane.  A lane of
    (G + a) - b, with a and b below G, keeps its guard bit exactly when
    a >= b, and never borrows from the next lane; once d_i >= 0 holds,
    the lanes of (G + f(S + i)) - f(S) less their guard bits are d_i,
    each at most max f.  So each test is a few masked shifts and one
    guarded subtraction, O(m^2) big-int operations on 2^m lanes in all.
    The witness comes from the lowest cleared guard bit: the lowest
    failing S of the first failing test.
    """
    if table[0] != 0:
        return 0, 0
    if not all(map(isinstance, table, repeat(int))) or min(table) < 0:
        mask = next(mask for mask, v in enumerate(table)
                    if not isinstance(v, int) or v < 0)
        return mask, mask
    full = len(table)
    m = full.bit_length() - 1
    g = max(table).bit_length()  # the guard bit's place in a lane
    k = g // 8 + 1
    lane = 8 * k
    packed = int.from_bytes(b"".join([v.to_bytes(k, "little") for v in table]),
                            "little")
    guards = int.from_bytes((1 << g).to_bytes(k, "little") * full, "little")
    # clear[i]: all ones in every lane S without element i
    clear = [int.from_bytes((b"\xff" * (k << i) + bytes(k << i)) * (full >> i + 1),
                            "little") for i in range(m)]
    for i in range(m):
        g_i = guards & clear[i]
        d = (g_i | packed >> (lane << i) & clear[i]) - (packed & clear[i])
        bad = g_i & ~d
        if bad:
            s = ((bad & -bad).bit_length() - 1) // lane
            return s, s | 1 << i
        d ^= g_i  # lane S now holds d_i(S)
        for j in range(i + 1, m):
            g_ij = g_i & clear[j]
            x = (g_ij | d & clear[j]) - (d >> (lane << j) & clear[j])
            bad = g_ij & ~x
            if bad:
                s = ((bad & -bad).bit_length() - 1) // lane
                return s | 1 << i, s | 1 << j
    return None
