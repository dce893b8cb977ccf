"""Numerical laboratory for field kernels on a periodic 1+1D box.

Exact discrete mode sums for the standard family of scalar two-point
kernels, a truncated Fock-space cross-check of the same objects, spinor
plane-wave checks, and double-sum emission/absorption identities, all on
one shared lattice.

Import the submodules (``boxqft.lattice``, ``propagators``, ``fock``,
``dirac``, ``absorber``, ``suite``, ``cli``); importing the package
itself loads none of them.
"""

__version__ = "0.1.0"
