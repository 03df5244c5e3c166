"""Independent oracles for the benchmark's output checks.

Nothing here imports lcsdyn: every expected value is recomputed from the
workload inputs with plain integer, Fraction or NumPy arithmetic, so a check
compares two separate derivations of one number.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def permutation_cycles(table):
    """Disjoint cycles of a permutation table, walked state by state."""
    seen = [False] * len(table)
    cycles = []
    for start in range(len(table)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = table[x]
        cycles.append(cyc)
    return cycles


def exact_cycle_means(table, values):
    """Exact Fraction mean of the factor over every cycle of the permutation."""
    vals = [Fraction(v) for v in values]
    return [sum((vals[i] for i in cyc), Fraction(0)) / len(cyc)
            for cyc in permutation_cycles(table)]


def functional_graph_cycle_means(succ, h):
    """Mean of h over every cycle of the functional graph x -> succ[x].

    Trees hanging off a cycle are skipped: only nodes met twice on one walk
    lie on a cycle.
    """
    succ = [int(v) for v in succ]
    state = [0] * len(succ)  # 0 unvisited, 1 on the current walk, 2 done
    means = []
    for start in range(len(succ)):
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = succ[x]
        if state[x] == 1:
            cyc = path[path.index(x):]
            means.append(math.fsum(float(h[i]) for i in cyc) / len(cyc))
        for y in path:
            state[y] = 2
    return means


def snapped_rotation_successors(grid: int, angle: float) -> np.ndarray:
    """Node i of the grid i/P goes to i + round(angle * P) mod P when snapped."""
    return (np.arange(grid) + int(round(angle * grid))) % grid


def lattice_factor(grid: int, terms) -> np.ndarray:
    """trig2 factor on the lattice (i/N, j/N), flattened as i * N + j."""
    i, j = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    h = np.zeros((grid, grid))
    for m, n, a, b in terms:
        phase = 2.0 * np.pi * (m * i + n * j) / grid
        h += a * np.cos(phase) + b * np.sin(phase)
    return h.ravel()


def lattice_successors(grid: int, matrix) -> np.ndarray:
    """Integer toral automorphism on (Z/N)^2, flattened as i * N + j."""
    (a, b), (c, d) = matrix
    i, j = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    return (((a * i + b * j) % grid) * grid + (c * i + d * j) % grid).ravel()


def orbit_averages(succ: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """A_n(h) at every node of an exact permutation: (1/n) sum_{i<n} h(psi^i x)."""
    total = np.zeros(len(h))
    cur = np.arange(len(h))
    for _ in range(n):
        total += h[cur]
        cur = succ[cur]
    return total / n


def golden_cos_gap_bound(n: int) -> float:
    """|A_n cos(2 pi x)| <= 1 / (n |sin(pi a)|) under the golden rotation.

    S_n cos(2 pi x) = Re e(x) (1 - e(n a)) / (1 - e(a)) and |1 - e(a)| =
    2 |sin(pi a)|, so |S_n| <= 1 / |sin(pi a)| for every x and n.
    """
    return 1.0 / (n * abs(math.sin(math.pi * GOLDEN)))


def sine_oscillation(grid: int) -> float:
    """max f - min f of f = sin(2 pi x) over the grid i/P."""
    f = np.sin(2.0 * np.pi * np.arange(grid) / grid)
    return float(f.max() - f.min())
