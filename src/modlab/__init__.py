"""modlab: a numerical laboratory for the modulus of curve families.

Computes discrete p-moduli with a certified primal-dual bracket, carries a zoo of
branched mappings of a punctured ball with exact distortion data, and runs the
weighted modulus-inequality, proof-bound, continuity, and blow-up scenarios as
reproducible experiments.
"""

__version__ = "0.1.0"

from .geometry import ExtendedPoint, SphericalRing, chordal_distance
from .curves import (Curve, CurveFamily, GridDensity, GridSpec, NoCrossing,
                     crossing_subcurve, generate_ring_family, line_integral,
                     load_family, minorizes, save_family)
from .modulus import (EtaFunction, ModulusResult, SolverBudgetExceeded,
                      admissible_check, blowup_experiment, discrete_modulus,
                      power_eta, reciprocal_eta, ring_grid,
                      ring_modulus_analytic, uniform_eta, unit_sphere_area,
                      weighted_rhs_integral)
from .mappings import (DistortionReport, MappingSpec, WeightQ, cluster_set_estimate,
                       distortion_at, evaluate, identity, inversion, lift_curve,
                       multiplicity, preimages, radial_stretch, weight_Q, winding)
from .verifier import (WeightBoundReport, ContinuityReport, PoletskiReport,
                       lifted_ring_family, continuity_bound, weight_bound_check,
                       verify_poletski)

__all__ = [
    "ExtendedPoint", "SphericalRing", "chordal_distance",
    "Curve", "CurveFamily", "GridDensity", "GridSpec", "NoCrossing",
    "crossing_subcurve", "generate_ring_family", "line_integral",
    "load_family", "minorizes", "save_family",
    "EtaFunction", "ModulusResult", "SolverBudgetExceeded",
    "admissible_check", "blowup_experiment", "discrete_modulus",
    "power_eta", "reciprocal_eta", "ring_grid", "ring_modulus_analytic",
    "uniform_eta", "unit_sphere_area", "weighted_rhs_integral",
    "DistortionReport", "MappingSpec", "WeightQ",
    "cluster_set_estimate", "distortion_at", "evaluate",
    "identity", "inversion", "lift_curve", "multiplicity", "preimages",
    "radial_stretch", "weight_Q", "winding",
    "WeightBoundReport", "ContinuityReport", "PoletskiReport",
    "lifted_ring_family", "continuity_bound", "weight_bound_check",
    "verify_poletski",
]
