"""Moduli of stable n-marked genus-0 tropical curves as a combinatorial
cone complex, with exhaustive verification of its automorphism group.

The API is the modules: each public name is imported from the module
that defines it, e.g. ``tropmoduli.cones.build_complex``."""

__version__ = "0.1.0"
