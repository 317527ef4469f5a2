"""Length-spectrum computations and separation certificates for
surface-group representations acting on hyperbolic 2- and 3-space.

The public names below are loaded on first access (PEP 562), so
``import qfcert`` or a command that needs only some submodules never
compiles the others.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "moebius": (
        "BASEPOINT", "BoundaryPoint", "BusemannGap", "Geodesic3", "INF",
        "InvariantError", "IsometryClass", "IsometryKind", "LoxodromicData",
        "MoebiusError", "MoebiusMap", "Point3", "busemann_gap", "classify",
        "dist_h3", "dist_to_geodesic", "fixed_points", "geodesic_point",
        "normalizer_to_axis", "point_near_geodesic", "translation_length",
        "wrap_turns",
    ),
    "surface_group": (
        "Word", "WordError", "enumerate_words", "word_from_text",
        "word_to_text",
    ),
    "representations": (
        "BEND_ANGLE_ENVELOPE", "OCTAGON_TRANSLATION_LENGTH", "GrowthEstimate",
        "LengthSpectrum", "Representation", "RepresentationError", "bend",
        "bending_curve_word", "compute_spectrum", "conjugate_representation",
        "estimate_growth", "evaluate", "find_complex_trace_element",
        "fuchsian_octagon", "normalize_spectrum", "orbit_length_estimate",
        "orbit_point_distances", "power_displacement", "representation_hash",
        "representation_json", "representation_to_dict", "stable_length",
    ),
    "check": (
        "AXIS_CROSS_TOL", "BoundaryError", "BoundaryPointRef",
        "CertificateError", "DEGENERATE_TOL", "PairConfig",
        "SeparationCertificate", "SpiralWitness", "certificate_from_dict",
        "certificate_problems", "certificate_to_dict", "certify",
        "classify_angle_pairs", "classify_pairs", "classify_real_pairs",
        "disk_angle", "fixed_angles", "reference_representation",
        "verify_witness_orders", "witness_from_dict", "witness_image_points",
        "witness_to_dict",
    ),
    "boundary": (
        "LimitSetSample", "MIN_THETA", "find_spiral_witness",
        "limit_set_sample", "normalize_at", "sample_to_csv", "sample_to_svg",
    ),
    "certificates": (
        "MIN_CERTIFICATE_MARGIN", "DlipRatioBound", "TriangleRecords",
        "diagnostic_delta", "find_separation_certificate",
        "ratio_lower_bound", "triangle_harness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
