"""The color refinement ``automorphisms._refine`` replaced, kept as the
reference the tests compare the counting-only-new-cells refinement
against.

Every round rebuilds each vertex's neighbor-color ``Counter`` from its
adjacency list.  It shares no code with the package.
"""

from __future__ import annotations

from collections import Counter


def _refine(nbrs, colors):
    """Refine one coloring to its fixpoint: a vertex's new color is the
    rank of its (color, neighbor-color counts) signature."""
    while True:
        sigs = [
            (colors[v], tuple(sorted(Counter(colors[u] for u in nb).items())))
            for v, nb in enumerate(nbrs)
        ]
        ids = {key: i for i, key in enumerate(sorted(set(sigs)))}
        refined = tuple(ids[k] for k in sigs)
        if refined == colors:
            return refined
        colors = refined
