"""Fisher-information engine for two-copy twirled network states.

Builds locally and globally unitary-invariant two-copy states from encoded
probe pairs, computes quantum and classical Fisher information for the
reversed- and identical-encoding protocols and for five measurement
strategies, and verifies every closed form against brute-force
density-matrix oracles at desk scale.
"""

__version__ = "0.1.0"
