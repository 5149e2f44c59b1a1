"""rieszlab: a verification laboratory for sharp Riesz-type inequalities for
complex harmonic mappings f = g + conj(h) on the unit disk.

The package computes Hardy, Bergman and mixed norms by spectrally accurate
quadrature, applies the periodic and line Hilbert transforms, evaluates the
closed-form sharp constants and subharmonic minorant functions, and verifies
the pointwise lemmas and integral theorems by brute-force grid scans,
sub-mean-value tests, and sampled inequality batteries, including sharpness
probes through the Calderon extremal family.
"""

from .constants import (
    Minorant,
    SharpConstant,
    conjugate_exponent_bar,
    minorant_F,
    minorant_G,
    minorant_value,
    sharp_constant,
    theta_lower,
    theta_upper,
)
from .gridlab import (
    InequalityId,
    check_pluri_lines,
    check_submean,
    default_p_values,
    equality_loci,
    locate_equality,
    origin_circle_mean,
    verify_pointwise,
)
from .hilbert import (
    LineKind,
    LinePair,
    conjugate_map,
    line_pair_values,
    periodic_hilbert,
    singular_hilbert_at,
)
from .maps import (
    CalderonFamily,
    Constraint,
    FourierSeries,
    HarmonicMap,
    TaylorPoly,
    boundary_series,
    calderon_taylor,
    eval_harmonic,
    map_from_dict,
    map_to_dict,
    random_harmonic,
)
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    bergman_norm,
    bergman_triple_norm,
    calderon_norm,
    hardy_norm,
    mp_radius,
    triple_norm,
)
from .reporting import GridSpec, VerificationReport
from .theorems import (
    TheoremId,
    isoperimetric_chain,
    sharpness_probe,
    theorem_constant,
    verify_pair_isoperimetric,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "CalderonFamily",
    "Constraint",
    "FourierSeries",
    "GridSpec",
    "HarmonicMap",
    "InequalityId",
    "LineKind",
    "LinePair",
    "Minorant",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "SharpConstant",
    "TaylorPoly",
    "TheoremId",
    "VerificationReport",
    "bergman_norm",
    "bergman_triple_norm",
    "boundary_series",
    "calderon_norm",
    "calderon_taylor",
    "check_pluri_lines",
    "check_submean",
    "conjugate_exponent_bar",
    "conjugate_map",
    "default_p_values",
    "equality_loci",
    "eval_harmonic",
    "hardy_norm",
    "isoperimetric_chain",
    "line_pair_values",
    "locate_equality",
    "map_from_dict",
    "map_to_dict",
    "minorant_F",
    "minorant_G",
    "minorant_value",
    "mp_radius",
    "origin_circle_mean",
    "periodic_hilbert",
    "random_harmonic",
    "sharp_constant",
    "sharpness_probe",
    "singular_hilbert_at",
    "theorem_constant",
    "theta_lower",
    "theta_upper",
    "triple_norm",
    "verify_pair_isoperimetric",
    "verify_pointwise",
    "verify_theorem",
]
