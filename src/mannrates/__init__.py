"""Tight worst-case residual bounds for averaged fixed-point iterations.

The rate of a general averaging (Mann-type) iteration of a nonexpansive
map is governed by a nested family of optimal-transport problems between
the rows of its coefficient array.  This package builds those distance
tables, certifies their tightness with an explicit sup-norm worst-case
construction, optimizes the coefficients under several regimes, and
cross-checks everything against concrete operators (shifts, rotations,
affine maps) whose iterations attain or bound the rates.
"""

import os

# One BLAS/OpenMP thread unless the user chose a count, set before numpy
# loads: the optimizers' small matrix products only lose time to a thread
# pool.  Float outputs are then those of a one-thread run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .distances import (DistanceTable, build_distance_table, halpern_residuals,
                        validate_metric, validate_quadrangle)
from .halpern import (affine_optimal, affine_theta, check_sufficient,
                      harmonic_bound, optimal_recursion)
from .operators import (affine_shift_halpern_residual, binomial_floor_function,
                        inf_f, kim_vs_halpern, km_l1_residuals,
                        rotation_halpern_residual, shift_linf_residuals)
from .optimize import (OptimizationResult, OptimizerConfig,
                       optimize_fixed_horizon, optimize_scheme,
                       optimize_sequential)
from .schemes import SchemeSpec, TriangularArray, build_rows, check_monotone
from .transport import (TransportPlan, greedy_monotone_transport,
                        solve_transport)
from .witness import build_worst_case_witness, witness_json

__version__ = "0.1.0"
