"""Derivative-free pattern search shared by the median refiner and the
projection optimizer (axis-aligned and random probes, strict-improvement
acceptance, geometric step shrinking; deterministic given the generator),
and the incumbent floor that lets both prune their objectives."""

from __future__ import annotations

import math

import numpy as np

LEVELS = 8      # step sizes of one search
SHRINK = 0.5    # each step size over the one before


def pattern_search_min(f, x0: np.ndarray, *, initial_step: float,
                       rng: np.random.Generator, max_moves: int = 100,
                       box: np.ndarray | None = None):
    """Minimize ``f`` from ``x0``.

    ``f`` is a batched objective: it takes an (m, d) array of points and
    returns their m values, in row order. The start is evaluated as a batch
    of one; each iteration evaluates all of its probes in one call.

    Per iteration the probe set is the 2d axis steps (``+e_i``, ``-e_i`` for
    each axis in turn) plus 2d random unit steps (4d probes); ``box`` (d, 2)
    clips every probe. The iteration moves to the first probe, in that order,
    whose value is the strict minimum below the current one, which is the
    move a probe-by-probe loop with strict-improvement acceptance would make;
    the step shrinks by ``SHRINK`` once no probe improves, ``LEVELS`` step
    sizes in all, with at most ``max_moves`` moves over all of them.

    Returns ``(x, f(x), evaluations)`` with ``f(x)`` a Python float and
    ``evaluations`` counting every probed point, the start included.

    Invariant: ``fx`` is the least value ``f`` has returned in this search
    (the earliest of equal ones; a NaN is never less, so a NaN start stays),
    which is what lets :func:`floored` objectives prune.
    """

    def clip(x):
        if box is None:
            return x
        return np.clip(x, box[:, 0], box[:, 1])

    x = clip(np.asarray(x0, dtype=float).copy())
    fx = float(f(x[None, :])[0])
    evals = 1
    d = x.shape[0]
    axes = np.repeat(np.eye(d), 2, axis=0)
    axes[1::2] *= -1.0                               # +e_0, -e_0, +e_1, ...
    step = float(initial_step) if initial_step > 0 else 1.0
    moves = 0
    for _ in range(LEVELS):
        while moves < max_moves:
            raw = rng.standard_normal((2 * d, d))
            norms = np.linalg.norm(raw, axis=1)
            norms[norms == 0.0] = 1.0
            probes = clip(np.vstack([x + axes * step, x + step * raw / norms[:, None]]))
            values = np.asarray(f(probes))
            evals += len(probes)
            # a NaN never improves, as in a probe-by-probe comparison
            values = np.where(values < fx, values, np.inf)
            best = int(np.argmin(values))
            if not values[best] < fx:
                break
            x, fx = probes[best], float(values[best])
            moves += 1
        step *= SHRINK
    return x, fx, evals


def floored(evaluate):
    """A fresh batched objective ``xs -> evaluate(xs, floor)`` for one
    :func:`pattern_search_min`, whose ``floor`` is the least value it has
    returned so far (``inf`` before the first call, and a NaN is never
    less): the search's ``fx``, unless that is a NaN start.

    ``evaluate`` must return the exact value of every row whose value is
    below ``floor``, and for any other row a value between ``floor`` and its
    true value, so it may stop evaluating a row once it proves the row
    cannot go below the floor. The search accepts a probe only when it is
    strictly below ``fx``, so it accepts the same probes with the same exact
    values, and the path, the generator draws and ``(x, fx, evaluations)``
    keep the bits of the search over exact values.
    """
    floor = math.inf

    def objective(xs: np.ndarray) -> np.ndarray:
        nonlocal floor
        values = evaluate(xs, floor)
        floor = float(np.min(values, initial=floor, where=values < floor))
        return values

    return objective
