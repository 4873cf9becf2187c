"""Default numerical tolerances shared across the package.

Solver routines read these directly. Keeping them in one place makes
the contract between layers auditable.
"""

# feasibility slack on linear constraints and sign conditions
TOL_FEAS = 1e-8

# threshold above which a coordinate counts as support (r_i > 0 etc.)
TOL_SUPPORT = 1e-7

# complementarity residual |z^T w| scale factor
TOL_COMP = 1e-7

# integrality tolerance for binaries in branch and bound
TOL_INT = 1e-6

# pivot magnitude threshold factor: a pivot below this times the largest
# absolute entry of the matrix is treated as zero
TOL_PIVOT_FACTOR = 1e-10

# complementary pivoting: an entering-column entry above this is a
# pivot candidate; lexicographic ratios within TOL_LEX_TIE count as equal
TOL_LEMKE_PIVOT = 1e-10
TOL_LEX_TIE = 1e-12

# rank threshold of the singular value decomposition: singular values at
# or below this times the largest count as zero
TOL_RANK = 1e-10

# eigenvalue tolerance for positive semidefiniteness tests
TOL_PSD = 1e-9

# positive definiteness: the smallest eigenvalue of the symmetric part,
# scaled to unit diagonal, above this
TOL_PD = 1e-9

# strict complementarity of a nominal solution: z_i at or below this
# times the largest z_j counts as zero, and w_i = (M z + q)_i at or below
# this times the largest entry of |M z| and |q|
TOL_STRICT = 1e-9

# entrywise distance below which two solutions count as duplicates
TOL_DEDUP = 1e-9

# row certificate of a warm-started infeasible LP: entries of y^T A at or
# below this times the largest count as zero
TOL_CERT_ZERO = 1e-11


def warm_pivot_cap(rows: int) -> int:
    """Dual pivots a warm-started feasibility LP with `rows` rows may take
    before it falls back to a cold phase 1."""
    return 2 * rows + 50
