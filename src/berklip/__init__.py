"""Exact nonarchimedean invariants and Lipschitz bounds of rational maps
on the Berkovich projective line over QQ with a p-adic absolute value.

The package root loads nothing: import the modules themselves
(``berklip.invariants``, ``berklip.lipschitz``, ...), or run the command
line front end with ``python -m berklip``."""

__version__ = "0.1.0"
