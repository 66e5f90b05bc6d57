"""Exact computational engine for multi-scale stability conditions of A_n type.

Subpackages by subject: :mod:`anstab.anquiver` (quivers with potential),
:mod:`anstab.klattice` (the K-lattice braid shadow), :mod:`anstab.hearts`
(finite hearts and tilting), :mod:`anstab.stability` (central charges and the
rotation action), :mod:`anstab.multiscale` (nested hearts, plumbing,
neighborhoods), :mod:`anstab.limits` (exact degeneration limits),
:mod:`anstab.strata` (enhanced level graphs), :mod:`anstab.cli` (driver).
"""

from . import anquiver, exact, hearts, klattice, limits, multiscale, stability, strata

__version__ = "0.1.0"
