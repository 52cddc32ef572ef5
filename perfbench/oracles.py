"""Closed-form answers the benchmark checks tropmoduli's outputs against.

Nothing here imports tropmoduli: each value comes from counting
arguments that share no code with the package's enumerators and
searches.
"""

from __future__ import annotations

import math


def f_vector(n: int) -> list[int]:
    """Cells of each dimension of the genus-0 moduli complex for n
    markings, by leaf insertion: T(3, 0) = 1 and
    T(n+1, m) = (m+1) T(n, m) + (n+m-1) T(n, m-1).  Inserting leaf n+1
    either into one of a tree's m+1 vertices or into one of its n+m-1
    legs and edges gives every (n+1)-marked tree exactly once."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    row = [1]
    for k in range(3, n):
        row = [
            (m + 1) * (row[m] if m < len(row) else 0)
            + (k + m - 1) * (row[m - 1] if m >= 1 else 0)
            for m in range(len(row) + 1)
        ]
    return row


def total_cells(n: int) -> int:
    """All cells for n markings: Schroeder's fourth problem, OEIS A000311."""
    return sum(f_vector(n))


def count_maximal(n: int) -> int:
    """Trivalent trees with n labelled leaves: (2n-5)!!."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return math.prod(range(1, 2 * n - 4, 2))


def count_rays(n: int) -> int:
    """Splits of {1..n} with both sides of size >= 2: 2^(n-1) - n - 1."""
    return 2 ** (n - 1) - n - 1


def aut_order(n: int) -> int:
    """Order of the complex's automorphism group: n! for n >= 5, and
    6 at n = 4, where the Klein four-group acts trivially."""
    if n < 4:
        raise ValueError(f"the automorphism theorem needs n >= 4, got {n}")
    return 6 if n == 4 else math.factorial(n)
