"""Every numerical threshold qwstat decides with, and what each is relative to.

A tolerance is only meaningful against a scale.  Quantities derived from the
coin alone (its entries, the eigenvalue candidates, the reduced matrix) are
of order one, because a unitary's entries are bounded by 1, so their
tolerances are absolute, that is relative to 1.  Measures scale with the
squared seeds, so tolerances on measures are relative to the largest weight
``max(mu)``: a check then gives the same answer at every seed scale.
"""

from __future__ import annotations

__all__ = [
    "UNITARITY_TOL",
    "ZERO_ENTRY_TOL",
    "RTOL",
    "CLOSURE_TOL_PER_SITE",
    "TAN_POLE_TOL",
    "DRIFT_TOL",
    "MIN_SCALE",
]

# Max entrywise deviation of A A* from the identity that a coin may have,
# relative to 1 (the entries of a unitary).
UNITARITY_TOL = 1e-12

# Modulus at or below which a coin entry counts as zero, which puts the coin
# outside the reduction's scope; relative to 1.
ZERO_ENTRY_TOL = 1e-14

# One order looser than UNITARITY_TOL: the eigenvalue candidates are quotients
# of products of entries and absorb a few rounding steps.  Relative to 1 for
# quantities derived from the coin: agreement of the two eigenvalue
# candidates, |lambda| = 1, the square condition, the shape of the reduced
# matrix and |a22| = 1.  Relative to max(mu) for measures: two weights of a
# period are equal when they differ by at most RTOL * max(mu).
RTOL = 1e-10

# Seam mismatch |e^{i n k} - 1| a Type 1 state may have on a cycle, per site
# (relative to n): 32 eps n with eps = 2^-52.  Its rounding error grows
# linearly in n: k is off by about an ulp of k, and n k rounds by up to
# n |k| eps / 2.  Fourier measured 7.7e-16 a site (2.3e-9 at n = 3e6), a
# ninth of the bound.
CLOSURE_TOL_PER_SITE = 32 * 2.0**-52

# |cos(eta)| below which tan(eta) in the stefanak_eta closed form counts as a
# pole; relative to 1.
TAN_POLE_TOL = 1e-12

# Largest drift |mu_k(x) - mu_0(x)| a stationary state may show, relative to
# max(mu_0) over all sites at step 0.
DRIFT_TOL = 1e-9

# Smallest max(mu) of a nonzero state: the smallest normal double, relative to 1.
MIN_SCALE = 2.0**-1022
