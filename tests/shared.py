"""Cached builders shared across test modules (catalogs and complexes
are immutable, so one instance per n serves the whole run)."""

from collections import Counter
from functools import lru_cache

from tropmoduli import build_complex, enumerate_strata
from tropmoduli.trees import CanonicalForm, LeggedTree


@lru_cache(maxsize=None)
def catalog(n):
    return enumerate_strata(n)


@lru_cache(maxsize=None)
def complex_for(n):
    return build_complex(n, catalog(n))


def ray_mask(rays) -> int:
    """The bitmask of a set of ray indices (bit r is ray r)."""
    mask = 0
    for r in rays:
        mask |= 1 << r
    return mask


def cell_of(cx, rays) -> int:
    """The index of the cell with the given rays, looked up in ``cx.index``."""
    return cx.index[ray_mask(rays)]


def count_tree_objects(monkeypatch) -> Counter:
    """Count the LeggedTree and CanonicalForm objects built from now on
    (through ``__post_init__``), by class name."""
    return count_built(monkeypatch, LeggedTree, CanonicalForm)


def count_built(monkeypatch, *classes) -> Counter:
    """Count the objects of the given classes built from now on (through
    ``__post_init__``), by class name."""
    built = Counter()
    for cls in classes:
        monkeypatch.setattr(cls, "__post_init__", _counted(built, cls))
    return built


def count_calls(monkeypatch, module, name, key=lambda *args: None) -> Counter:
    """Count the calls to ``module.name`` made from now on, by ``key`` of
    their arguments."""
    calls = Counter()
    original = getattr(module, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _counted(counter, cls):
    original = cls.__post_init__

    def wrapper(self):
        counter[cls.__name__] += 1
        original(self)

    return wrapper
