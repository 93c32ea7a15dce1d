"""Every tolerance that decides whether a check passes or an input is valid.

The library checks and the CLI reports read these names, so a report's
``tolerance`` is the value the library compared against. Constants internal
to an algorithm (solver stop rules, divide guards) stay with it.
"""

# Gauss-Legendre nodes in u = sqrt(sigma) of every halt-parameter integral:
# exact to degree 31 in u, and to 15 in the cumulative integral; no integrand
# passes 11 (a P-party halt density 2P - 1, moment_identity_check 11).
QUAD_NODES = 16
SIGMA_SAMPLES = 101  # uniform samples of the halt parameter sigma in [0, 1]

# Zero up to rounding: exact candidate witnesses, entries and norms that
# must vanish, and the slack on parameter domains, signs and gap bounds.
ROUNDING_TOL = 1e-12

# Input validity.
HERMITICITY_TOL = 1e-12        # sqrt_psd's input, relative to 1 + max|a|
INPUT_HERMITICITY_TOL = 1e-10  # Hermiticity of targets and coefficients
PSD_TOL = 1e-9                 # lowest eigenvalue, relative to 1 + max|eig|
DENSITY_TRACE_TOL = 1e-8       # |Tr rho - 1| of a density matrix
RANK_TOL = 1e-8                # Choi eigenvalues kept, relative to the largest
INDEPENDENCE_TOL = 1e-10       # lowest Gram eigenvalue of a zonoid basis block
SPAN_TOL = 1e-8                # endpoint expansion residual, relative

# Checks.
MEMBERSHIP_TOL = 1e-7         # Frobenius residual ||L(C) - z|| when feasible
RESOLUTION_TOL = 1e-7         # coefficient matrices resolving the identity
RECON_TOL = 1e-8              # basis reconstruction of paths and densities
NODE_SUM_TOL = 1e-9           # tree node element minus the sum of its leaves
COMPLETENESS_TOL = 1e-9       # sum_m K_m^dag K_m - identity
PRODUCT_TOL = 1e-10           # relative distance from a tensor product
TRACELESS_TOL = 1e-13         # |Tr e| relative to ||e||: no unit-trace factors
LOCALITY_TOL = 1e-10          # non-acting party's factor change along an edge
TRACE_TOL = 1e-10             # |Tr op(s) - s| along a path
MIXTURE_PSD_TOL = 1e-10       # negativity of (1 - x) C_parent + x C_r
ISOMETRY_TOL = 1e-10          # isometric relations and expansion residuals
ISOMETRY_IDENTITY_TOL = 1e-9  # W^dag W - identity of an isometric relation
COARSE_GRAIN_TOL = 1e-9       # integrated halt continua against the CP maps
QUADRATURE_TOL = 1e-10        # quadrature against closed-form coefficients
CHOI_TRACE_TOL = 1e-10        # trace of a Choi operator
CHOI_QUADRATURE_TOL = 1e-8    # quadrature Choi against the Kraus Choi
CLOSED_FORM_TOL = 1e-9        # worked-example numbers against closed forms
