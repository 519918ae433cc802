"""Exact construction and verification of the Adam-Muratori-Nash
polynomial sequence and the associated Weyl-Dirac zero modes."""

__version__ = "0.1.0"
