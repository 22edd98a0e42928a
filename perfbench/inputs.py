"""Seeded inputs of the benchmark: baskets, windows and request scripts.

Everything here is a pure function of ``(workload sizes, seed)``, so the
same seed always yields byte-identical inputs.  The basket process is
the benchmark's own (it does not call the program's data generators), so
a change to the program cannot change what the benchmark feeds it.

The process is retail-like: Zipf item popularity over a seeded item
permutation, plus planted bundles whose activity drifts from window to
window.  Bundle sizes and the activity pattern are fixed, not seeded, so
every seed yields knowledge bases of the same shape (rule counts, answer
sizes) and only the item identities and the baskets change.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Basket = Tuple[int, ...]
Window = List[Basket]
Setting = Tuple[float, float]  # (minsupp, minconf)


@dataclass(frozen=True)
class BasketShape:
    """Size and statistics of one generated history."""

    windows: int
    per_window: int
    items: int = 400
    skew: float = 1.0
    mean_basket: int = 7
    bundles: int = 24
    bundle_share: float = 0.45


def _stream(seed: int, tag: str) -> random.Random:
    """An independent deterministic random stream per (seed, purpose)."""
    return random.Random(f"perfbench/{tag}/{seed}")


def _poisson(rng: random.Random, mean: int) -> int:
    # Knuth's method is fine for the small means used here.
    limit, product, count = 2.718281828459045 ** -mean, 1.0, 0
    while True:
        product *= rng.random()
        if product < limit:
            return count
        count += 1


def generate_windows(shape: BasketShape, seed: int) -> List[Window]:
    """``shape.windows`` windows of ``shape.per_window`` baskets each."""
    rng = _stream(seed, "baskets")
    # Item ids are a seeded permutation: its first ``shape.items`` ids are
    # the Zipf vocabulary by rank, the rest occur only in bundles of fixed
    # sizes (2, 3, 4, 2, 3, 4, ...), so every seed plants exactly the same
    # rules and only their ids change.
    sizes = [2 + index % 3 for index in range(shape.bundles)]
    order = list(range(shape.items + sum(sizes)))
    rng.shuffle(order)
    tail = order[shape.items :]
    bundles = []
    for size in sizes:
        bundles.append(tuple(sorted(tail[:size])))
        tail = tail[size:]
    weights = [1.0 / (rank + 1) ** shape.skew for rank in range(shape.items)]
    cdf = list(itertools.accumulate(weights))
    total = cdf[-1]
    windows: List[Window] = []
    for window in range(shape.windows):
        # Fixed drift: each bundle is active in three of every four windows.
        active = [
            bundle
            for index, bundle in enumerate(bundles)
            if (window + index) % 4 != 0
        ]
        baskets: Window = []
        planted = 0
        for position in range(shape.per_window):
            basket = set()
            # Bundles go into a fixed share of the baskets, round robin,
            # so each active bundle occurs equally often in every seed.
            if (position * shape.bundle_share) % 1.0 + shape.bundle_share >= 1.0:
                basket.update(active[planted % len(active)])
                planted += 1
            target = max(2, _poisson(rng, shape.mean_basket))
            guard = 0
            while len(basket) < target and guard < 8 * target:
                guard += 1
                rank = bisect.bisect_left(cdf, rng.random() * total)
                basket.add(order[min(rank, shape.items - 1)])
            baskets.append(tuple(sorted(basket)))
        windows.append(baskets)
    return windows


def fimi_text(windows: Sequence[Window]) -> str:
    """Timed FIMI text of all windows, with a dense 0..n-1 clock."""
    lines = []
    clock = 0
    for window in windows:
        for basket in window:
            lines.append(f"{clock}: {' '.join(map(str, basket))}")
            clock += 1
    return "\n".join(lines) + "\n"


def append_payload(window: Window, first_time: int) -> Dict[str, object]:
    """The ``/v1/admin/append`` body publishing *window* as one batch."""
    return {
        "batches": [
            [
                {"items": list(basket), "time": first_time + offset}
                for offset, basket in enumerate(window)
            ]
        ]
    }


def snap(value: float) -> float:
    """A slider position: five decimals, as an analyst's UI would send."""
    return round(value, 5)


def walk_settings(
    seed: int,
    session: int,
    steps: int,
    *,
    supp_range: Tuple[float, float],
    conf_range: Tuple[float, float],
    grid: Tuple[int, int],
    revisit_share: float,
) -> List[Tuple[Setting, Optional[int]]]:
    """One analyst session's walk over the threshold plane.

    The walk is a serpentine over a ``grid`` of cells (session 0 sweeps
    support fastest, session 1 confidence), with a seeded position in
    the middle of each cell, and a seeded share of steps that return to an
    earlier setting of the same session.  The cell sequence is fixed,
    so every seed visits the same part of the plane.  Each entry is the
    setting and, for a return, the index of the step it returns to.
    """
    rng = _stream(seed, f"walk/{session}")
    cols, rows = grid
    (s_lo, s_hi), (c_lo, c_hi) = supp_range, conf_range
    s_step, c_step = (s_hi - s_lo) / cols, (c_hi - c_lo) / rows
    cells = []
    for outer in range(rows if session == 0 else cols):
        inner = range(cols if session == 0 else rows)
        if outer % 2:
            inner = reversed(inner)
        for index in inner:
            cells.append((index, outer) if session == 0 else (outer, index))
    walk: List[Tuple[Setting, Optional[int]]] = []
    for step in range(steps):
        if walk and rng.random() < revisit_share:
            earlier = rng.randrange(len(walk))
            walk.append((walk[earlier][0], earlier))
            continue
        col, row = cells[step % len(cells)]
        setting = (
            snap(s_lo + (col + rng.uniform(0.3, 0.7)) * s_step),
            snap(c_lo + (row + rng.uniform(0.3, 0.7)) * c_step),
        )
        walk.append((setting, None))
    return walk


def stratified_settings(
    rng: random.Random,
    count: int,
    supp_range: Tuple[float, float],
    conf_range: Tuple[float, float],
) -> List[Setting]:
    """*count* settings that cover both ranges evenly, in seeded order.

    Each axis is cut into *count* equal strata and every stratum is used
    once, paired by a fixed scramble (a Latin hypercube that is the same
    for every seed); only the order and the position inside each stratum
    are seeded, so every seed asks for the same spread of thresholds and
    answer sizes repeat closely from seed to seed.
    """
    step = next(k for k in (7, 11, 13, 17, 19, 23) if count % k)
    pairs = [(stratum, stratum * step % count) for stratum in range(count)]
    rng.shuffle(pairs)

    def at(bounds: Tuple[float, float], stratum: int) -> float:
        low, high = bounds
        return snap(low + (stratum + rng.uniform(0.05, 0.95)) * (high - low) / count)

    return [(at(supp_range, s), at(conf_range, c)) for s, c in pairs]
