"""The package's public names and options: adding or removing one is an
edit of this test."""

import dataclasses
import importlib
import inspect

import rieszlab
from rieszlab import battery, gridlab, quadrature, theorems
from rieszlab.quadrature import QuadratureSpec
from rieszlab.reporting import GridSpec

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


LAYERS = ("constants", "maps", "hilbert", "quadrature", "reporting", "gridlab", "theorems", "battery")


def defaulted_parameters():
    """{qualified name: names of its defaulted parameters} for every function
    in a layer module's __all__ that is defined there, and the defaulted
    fields of GridSpec and QuadratureSpec."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"rieszlab.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                params = inspect.signature(fn).parameters.values()
                out[f"{layer}.{name}"] = [p.name for p in params if p.default is not p.empty]
    for cls in (GridSpec, QuadratureSpec):
        fields = dataclasses.fields(cls)
        out[cls.__name__] = [f.name for f in fields if f.default is not dataclasses.MISSING]
    return out


def test_public_option_count():
    options = defaulted_parameters()
    assert sum(len(names) for names in options.values()) == 76, options


# options that no program caller set, each now one value where it is used
REMOVED_OPTIONS = [
    (GridSpec, ("r_range", "t_range")),
    (QuadratureSpec, ("adaptive_depth",)),
    (gridlab.scan_ranges, ("grid",)),
    (quadrature.calderon_norm, ("rel_tol", "max_refinements")),
    (quadrature.calderon_power_mean, ("rel_tol", "max_refinements")),
    (theorems.verify_theorem, ("spec",)),
    (theorems.isoperimetric_chain, ("spec", "rel_tol")),
    (theorems.verify_pair_isoperimetric, ("spec", "rel_tol")),
    (theorems.sharpness_probe, ("rel_tol",)),
    (battery.constant_identity_report, ("n_points", "lo", "hi", "tol")),
    (battery.parseval_bridge_report, ("tol",)),
    (battery.hilbert_multiplier_report, ("n_series",)),
    (battery.hilbert_singular_report, ("degree", "epsilon", "tol")),
    (battery.calderon_probe_report, ("p", "fraction", "floor")),
    (battery.calderon_monotone_report, ("p", "fractions")),
]


def test_removed_options_stay_removed():
    for owner, names in REMOVED_OPTIONS:
        # a dataclass's signature is its fields
        assert not set(names) & set(inspect.signature(owner).parameters), owner.__qualname__
    # hardy_norm takes a HarmonicMap only; calderon_norm is the family's norm
    assert inspect.signature(quadrature.hardy_norm).parameters["m"].annotation == "HarmonicMap"
