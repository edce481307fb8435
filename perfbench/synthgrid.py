"""Seeded synthetic DC grids: a ring with random chords.

The grid is a pure function of (seed, N): the same pair always gives the
same document, byte for byte once serialized. It uses NumPy only (no graph
library), so the benchmark needs nothing the package does not.

Ratings follow the package's own rule (`resolve_auto_ratings`, K times the
absolute base flow) and are then raised to at least the median rating. The
plain rule gives lightly loaded lines a near-zero rating, so any noise at all
collapses their bound and every noisy region kind raises `BoundCollapse`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gridcap import AnalysisDefaults, NetworkDocument, resolve_auto_ratings
from gridcap.io_formats import SCHEMA_VERSION, LineSpec, NodeSpec

RATING_K = 1.5
RATING_FLOOR_RULE = f"rating = max(K*|base flow|, median over lines), K = {RATING_K}"


@dataclass(frozen=True)
class SyntheticGrid:
    """A generated document plus the facts recorded with every result."""

    document: NetworkDocument
    buses: int
    lines: int
    stochastic: int
    rating_floor: float


def ring_with_chords(rng: np.random.Generator, n: int, chords: int) -> list:
    """Ring 1-2-...-n-1 plus `chords` distinct non-ring pairs, as (a, b) with a < b."""
    pairs = [(k, k + 1) for k in range(1, n)] + [(1, n)]
    seen = set(pairs)
    while len(pairs) < n + chords:
        a, b = sorted(int(v) for v in rng.integers(1, n + 1, size=2))
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            pairs.append((a, b))
    return pairs


def synthetic_grid(seed: int, n: int = 1000) -> SyntheticGrid:
    """Ring-with-chords grid: n buses, about 1.5 n lines, n/10 stochastic buses.

    Bus 1 is the slack. Injections and stochastic means are U(-1, 1), vol is
    U(0.05, 0.15), gamma is 1, every thermal constant is 0.5 and
    susceptances are U(1, 5). Analysis defaults: epsilon 0.01, p 1e-4,
    horizon 1, tau0 0.5.
    """
    rng = np.random.default_rng([seed, n])
    pairs = ring_with_chords(rng, n, n // 2)
    stochastic = set(int(v) for v in rng.choice(np.arange(2, n + 1), size=n // 10, replace=False))
    injection = rng.uniform(-1.0, 1.0, size=n + 1)
    vol = rng.uniform(0.05, 0.15, size=n + 1)
    susceptance = rng.uniform(1.0, 5.0, size=len(pairs))

    nodes = [NodeSpec(id=1, role="slack")]
    for bus in range(2, n + 1):
        if bus in stochastic:
            nodes.append(NodeSpec(id=bus, role="stochastic", gamma=1.0, vol=float(vol[bus]), mean=float(injection[bus])))
        else:
            nodes.append(NodeSpec(id=bus, role="deterministic", injection=float(injection[bus])))
    lines = tuple(
        LineSpec(from_id=a, to_id=b, susceptance=float(s), rating="auto", tau=0.5)
        for (a, b), s in zip(pairs, susceptance)
    )
    doc = NetworkDocument(
        version=SCHEMA_VERSION,
        nodes=tuple(nodes),
        lines=lines,
        defaults=AnalysisDefaults(epsilon=0.01, p=1e-4, horizon=1.0, tau0=0.5),
    )
    doc = resolve_auto_ratings(doc, RATING_K)
    floor = float(np.median([line.rating for line in doc.lines]))
    doc = replace(doc, lines=tuple(replace(line, rating=max(line.rating, floor)) for line in doc.lines))
    return SyntheticGrid(document=doc, buses=n, lines=len(lines), stochastic=len(stochastic), rating_floor=floor)
