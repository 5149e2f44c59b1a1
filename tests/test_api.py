"""The package's public names: adding or removing one is an edit of this test."""

import rieszlab

PUBLIC = {
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
}


def test_public_names_are_pinned():
    assert len(rieszlab.__all__) == len(PUBLIC)
    assert set(rieszlab.__all__) == PUBLIC
    assert all(hasattr(rieszlab, name) for name in PUBLIC)
