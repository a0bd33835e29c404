"""orbitlab: a finite-truncation laboratory for shift-type operators built
from lay-off weights and working-interval relations, with verifiers for the
quantitative estimates the construction is designed to satisfy."""

from .schedule import (StageParams, StageSchedule, validate, load_config,
                       save_config, REAL, COMPLEX, FLOAT, RATIONAL)
from .geometry import (Seed, BLayOff, BWorking, CLayOff, CWorking, TailLayOff,
                       LatticeCoord, classify, layoff_weight, coord_to_index,
                       index_to_coord, is_layoff)
from .polynet import (Poly, PolyNet, ZERO, ONE, ZETA, generate_net,
                      b_damped, ell1_distance, nearest_member,
                      NO_CONSTRAINT, ZERO_CONSTANT_TERM, ToeplitzSystem,
                      solve_poly, steer)
from .basis import (BasisMap, assemble, lattice_descent, expand_e_structural,
                    solve_F, roundtrip_max_error, roundtrip_exact,
                    export_matrix_market)
from .operators import (conjugated_power, op_norm, OpNormResult,
                        block_estimates, tail_bound_entry, orbit_distances)
from .hypercyclic import (Certificate, certify_hypercyclic_step, fan_residual,
                          fan_residual_bound, shade_measurements,
                          modulus_reduction_chain)
from .unicell import (large_coord_index, compare_orbits, LargeCoordIndex,
                      ComparisonResult, X_CONTAINS_Y, Y_CONTAINS_X)
from .negligibility import (GaussianSampler, coord_tail_probability,
                            borel_cantelli_sum, porosity_witness,
                            e0_functional_structural)
from .reflexivity import (build_A, noncommutation_witness, orbit_membership,
                          zero_constant_profile)
from .report import VerificationReport, Entry, PASS, FAIL, INFO
from . import profiles

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
