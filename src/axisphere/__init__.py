"""Axisymmetric two-phase patterns on the sphere: energies, critical
points, strip-move descent, and second-variation analysis."""

__version__ = "0.1.0"
