"""Counting rational points and verifying the predicted leading constant for
the quartic del Pezzo surfaces  x0*x4 + x1^2 - a*x3^2 = x2*x3 - x4^2 = 0
(one A3 and one A1 singularity) over Q, via their split-torsor
parameterization."""

__version__ = "0.1.0"
