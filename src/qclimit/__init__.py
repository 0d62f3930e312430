"""Heisenberg-Weyl symmetry with rotations: the coset group law, coherent states,
the symmetry contraction to the classical regime, and a Moyal star-product
engine, plus a verification CLI."""

__version__ = "0.1.0"
