"""Numerics for the limit law of quicksort's comparison count.

Two independent routes to the limiting density (Fourier inversion of the
characteristic-function fixed point, and successive substitution on the
density integral equation), certified decay bounds on the characteristic
function with their integrated sup-norm consequences, the moment recursion,
and exact/sampled finite-n comparison counts to check against.
"""

__version__ = "0.1.0"
