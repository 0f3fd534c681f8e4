"""Every tolerance, cutoff and floor of the package, each defined once.

The identities of the theory (trace duality, the tower and module
properties, the quadratic variation, the Doob-Meyer decomposition, the
uniqueness trace identity) are exact on finite matrix algebras, and its
inequalities are trace or Loewner inequalities with explicit constants.
In floating point both hold only up to rounding, so each is judged
against one of the values below.  Residuals are measured on the
normalized trace scale (``tau(1) == 1``) with data of order one, as the
seeded sweeps draw it.  No other module defines a tolerance.  Residual
terms fold into one residual through :func:`worst`, the package's only such
fold; a NaN term makes the residual NaN, and a NaN residual fails its check.
On a stack of elements the terms are arrays over the stack, and the fold
acts per element.
"""

import numpy as np

# -- check tolerances: what a harness CheckRecord compares its residual with --

# Exact identities and trace bounds among a few products of order-one elements.
CHECK_TOL = 1e-10
# Loewner and p-norm inequalities, fourth-order identities, and martingale
# properties of processes built from products of the data.
CHECK_TOL_DERIVED = 1e-9
# Partition sums that differ only by exact-zero terms, so by no rounding at all.
CHECK_TOL_REFINEMENT = 1e-12
# Pass/fail predicates recorded as residual 0 or inf; no slack.
CHECK_TOL_PREDICATE = 0.0

# -- preconditions and cutoffs of the operations ----------------------------

# Operator-norm Hermiticity gate of the functional calculus and spectral projections.
HERMITIAN_TOL = 1e-10
# Hermiticity gate of min_eigenvalue on computed Loewner differences (E_s a - b),
# whose anti-Hermitian part is rounding of larger intermediates.
LOEWNER_HERMITIAN_TOL = 1e-8
# Positivity precondition of the Chebyshev projection: Hermitian and spectrum >= -tol.
POSITIVITY_TOL = 1e-10
# A Projection satisfies e == e* == e @ e within this, in operator norm.
PROJECTION_TOL = 1e-10
# Eigenvalues this close to a spectral-interval endpoint count as inside it.
SPECTRAL_EDGE_TOL = 1e-12
# Null-space cutoff of (1-e) + (1-f), whose spectrum is 0 or far from it at these sizes.
MEET_NULL_TOL = 1e-8
# Block weights sum to 1 within this, so that tau(1) == 1.
WEIGHT_SUM_TOL = 1e-12
# x lies in a subalgebra when ||E(x) - x||_2 is within this.
INCLUSION_TOL = 1e-10
# Gram-engine bases with a larger condition estimate are rejected as dependent.
COND_LIMIT = 1e12
# A process value is adapted when ||E_k X(t_k) - X(t_k)||_2 is within this.
ADAPTED_TOL = 1e-10
# Martingale precondition of integral processes, compensators, decompositions,
# certificates and the uniqueness identity.
MARTINGALE_TOL = 1e-9
# The naturality pairing needs an increasing process with ||A(0)||_2 within this.
INITIAL_ZERO_TOL = 1e-10
# The uniqueness identity needs every value within this of selfadjoint, in 2-norm.
SELFADJOINT_TOL = 1e-9
# A ratio whose denominator norm is at most this is undefined, not estimated.
DENOMINATOR_FLOOR = 1e-12
# Least percentile epsilon, so certificate thresholds stay positive for a zero process.
EPSILON_FLOOR = 1e-8


def worst(terms) -> float:
    """The largest of 0 and ``terms``; NaN as soon as any term is NaN.

    Terms that are arrays over a stack fold element by element, with the
    same rule per element; a number among them counts for every element.
    """
    out, stacked = 0.0, False
    for t in terms:
        if stacked or isinstance(t, np.ndarray):
            out, stacked = np.where((t > out) | (t != t), t, out), True
        elif t > out:
            out = t
        elif t != t:  # NaN
            return t
    return out
