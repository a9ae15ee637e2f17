"""Exact computations for Lie algebras generated by extremal elements.

Universal sandwich algebras L_r and their associative companions R_r,
Chevalley algebras of all types with extremality / bilinear-form / radical
machinery, the three-generator classification, minimal extremal
generation certificates, and root-group identity checks -- all over the
rationals or GF(p) with p an odd prime, all in exact arithmetic.

There is no package-level API: the modules are imported by name, and the
``extremal-lie`` command (``extremal_lie.cli``) is the interface.
"""
