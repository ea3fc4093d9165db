"""The Lagrangian dual of the budget rows and the latency cap, searched by
the elimination DP.

Branch and bound calls :func:`search` once, before it builds its search
tables, when the solve is time-limited or the kernel has no rows, and
reads the one :class:`Result` it returns.  Without rows the one pass, at
λ = 0, is exact: the DP's optimum and its argmin.  Its one proof that no
assignment meets every row is a bound above the objective's largest sum.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from .solver import _eliminate, _Kernel, _largest, _Row


class Result(NamedTuple):
    """What the dual search found: its highest bound on the optimum (above
    ``_largest(kernel.obj)`` when it proves that there is none) and the
    multipliers by row label of the first pass that reached it, the
    cheapest assignment that meets every row (one candidate index per
    position) and its objective value, or None for both, the passes run
    and the rows the λ = 0 pass's assignment breaks."""

    bound: int
    multipliers: dict[str, int]
    chosen: list[int] | None
    value: int | None
    passes: int
    broken: tuple[str, ...]


class _Point(NamedTuple):
    multipliers: tuple[int, ...]
    bound: int
    excess: list[int]  # per row: its use minus its budget


def _penalised(cost: _Row, rows, multipliers) -> list[list[int]]:
    """``cost``'s tables with each row's coefficients added at its multiplier."""
    tables = cost.node + cost.arc
    for row, weight in zip(rows, multipliers):
        if weight:
            for t, coefficients in enumerate(row.node + row.arc):
                tables[t] = [c + weight * x for c, x in zip(tables[t], coefficients)]
    return tables


def search(kernel: _Kernel, deadline: float) -> Result | None:
    """Lagrangian bounds and feasible assignments from the elimination DP,
    until ``deadline`` (a :func:`time.monotonic` reading): the best of
    them as one :class:`Result`, or None when no pass ran (the deadline
    has passed, or the DP needs more than ``DP_STATE_LIMIT`` states).

    Every finite budget row and the latency cap gets an integer multiplier
    λ >= 0.  A pass runs the DP over the objective's tables plus λ times each
    row's coefficients; its total minus the sum of λ times each budget is a
    lower bound on every feasible assignment's cost, for any λ (Fisher,
    "The Lagrangian relaxation method for solving integer programming
    problems", Management Science 1981).  The search starts at λ = 0 and
    then raises one multiplier at a time, that of the most violated row
    (relative to its budget): from L0 / (10 x its excess), where L0 is the
    λ = 0 total, fourfold until the pass's assignment meets the row, then
    at the intersection of the two supporting lines of the bracket's ends
    (Kelley's cutting planes, J. SIAM 1960) until the bracket is one wide
    or those lines promise nothing better.  It continues from the best
    point of that line on whichever row its assignment breaks.  It keeps
    the first pass with the highest bound and the first assignment found
    at the lowest value among those that meet every row.  The search ends
    once that assignment meets the bound, once no row is broken or every
    broken row's line is exhausted, once a bound exceeds the objective's
    largest sum (weak duality: then no assignment meets every row), or
    when the next pass would not finish by the deadline.
    """
    if time.monotonic() >= deadline:
        return None
    schedule = kernel.schedule
    if schedule is None:
        return None
    cost, rows = kernel.obj, kernel.rows
    largest = _largest(cost)
    best_bound = best_multipliers = best_value = best_chosen = None
    passes = 0
    pass_s = 0.0

    def run(multipliers) -> _Point:
        nonlocal best_bound, best_multipliers, best_value, best_chosen, passes, pass_s
        if time.monotonic() + pass_s > deadline:
            raise TimeoutError
        started = time.monotonic()
        total, chosen = _eliminate(schedule, _penalised(cost, rows, multipliers))
        pass_s = time.monotonic() - started
        passes += 1
        use = [kernel.total(row, chosen) for row in rows]
        bound = total - sum([weight * row.budget for weight, row in zip(multipliers, rows)])
        excess = [u - row.budget for u, row in zip(use, rows)]
        if best_bound is None or bound > best_bound:
            best_bound, best_multipliers = bound, multipliers
            if bound > largest:
                raise StopIteration  # a certificate: no assignment meets every row
        if max(excess, default=0) <= 0:
            value = total - sum([weight * u for weight, u in zip(multipliers, use)])
            if best_value is None or value < best_value:
                best_value, best_chosen = value, chosen
        return _Point(multipliers, bound, excess)

    def line(i: int, start: _Point) -> _Point:
        """The best point on row ``i``'s line from ``start``, which breaks it."""

        def at(weight):
            return run(start.multipliers[:i] + (weight,) + start.multipliers[i + 1 :])

        lo = start
        weight = 4 * lo.multipliers[i] or max(1, scale // (10 * lo.excess[i]))
        hi = at(weight)
        while hi.excess[i] > 0:
            lo, hi = hi, at(4 * hi.multipliers[i])
        while hi.multipliers[i] - lo.multipliers[i] > 1:
            (t_lo, g_lo), (t_hi, g_hi) = (lo.multipliers[i], lo.excess[i]), (hi.multipliers[i], hi.excess[i])
            t = (hi.bound - lo.bound + g_lo * t_lo - g_hi * t_hi) // (g_lo - g_hi)
            t = min(max(t, t_lo + 1), t_hi - 1)
            if min(lo.bound + g_lo * (t - t_lo), hi.bound + g_hi * (t - t_hi)) <= max(lo.bound, hi.bound):
                break  # the cutting-plane model promises nothing better on this line
            point = at(t)
            if point.excess[i] > 0:
                lo = point
            else:
                hi = point
        return max((start, lo, hi), key=lambda p: p.bound)  # ties keep the start

    try:
        point = zero = run((0,) * len(rows))
        scale = point.bound
        exhausted = set()  # rows whose line from ``point`` gained nothing
        while best_value is None or best_value > best_bound:
            broken = [i for i, excess in enumerate(point.excess) if excess > 0 and i not in exhausted]
            if not broken:
                break
            i = max(broken, key=lambda i: Fraction(point.excess[i], rows[i].budget or 1))
            better = line(i, point)
            if better is point:
                exhausted.add(i)
            else:
                point, exhausted = better, {i}
    except (TimeoutError, StopIteration):
        pass
    if not passes:
        return None
    multipliers = dict(zip([row.label for row in rows], best_multipliers))
    broken = tuple([row.label for row, excess in zip(rows, zero.excess) if excess > 0])
    return Result(best_bound, multipliers, best_chosen, best_value, passes, broken)
