"""Covering radii of origin-symmetric spherical point sets.

The covering radius of a finite set on the unit sphere is read off the
vertices of the polar polytope of its convex hull; symmetric sets are
handled through a fundamental cone.  Exact rational and quadratic-field
backends certify radii symbolically; a float backend handles dimensions
whose radii have no implemented exact field.
"""

from .configgen import (
    Configuration,
    ConfigurationError,
    Pattern,
    SubsetSigns,
    SubsetValues,
    builtin_configuration,
    builtin_dimensions,
    config_from_json,
    config_to_float,
    config_to_json,
    expand,
    load_configuration,
    make_configuration,
    validate,
)
from .covering import (
    BoundVerificationError,
    CoveringReport,
    RoundingUndecidedError,
    SymmetryError,
    ThresholdVerdict,
    arccos_decimal,
    covering_radius,
    deep_hole_check,
    polar_system,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    reports_to_text,
    threshold_check,
    verify_bounds,
)
from .oracle import (
    InstanceTooLarge,
    brute_force_vertices,
    sampled_covering_radius,
)
from .polytope import (
    Halfspace,
    HPolytope,
    Unbounded,
    VertexSet,
    enumerate_vertices,
    max_squared_norm,
    polar_hrep,
    symmetry_cone,
)
from .scalar import (
    FLOAT,
    Field,
    FieldMismatchError,
    Quadratic,
    RATIONAL,
    format_scalar,
    parse_scalar,
    quadratic_field,
    to_decimal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundVerificationError",
    "Configuration",
    "ConfigurationError",
    "CoveringReport",
    "FLOAT",
    "Field",
    "FieldMismatchError",
    "HPolytope",
    "Halfspace",
    "InstanceTooLarge",
    "Pattern",
    "Quadratic",
    "RATIONAL",
    "RoundingUndecidedError",
    "SubsetSigns",
    "SubsetValues",
    "SymmetryError",
    "ThresholdVerdict",
    "Unbounded",
    "VertexSet",
    "arccos_decimal",
    "brute_force_vertices",
    "builtin_configuration",
    "builtin_dimensions",
    "config_from_json",
    "config_to_float",
    "config_to_json",
    "covering_radius",
    "deep_hole_check",
    "enumerate_vertices",
    "expand",
    "format_scalar",
    "load_configuration",
    "make_configuration",
    "max_squared_norm",
    "parse_scalar",
    "polar_hrep",
    "polar_system",
    "quadratic_field",
    "report_to_dict",
    "reports_to_csv",
    "reports_to_json",
    "reports_to_text",
    "sampled_covering_radius",
    "symmetry_cone",
    "threshold_check",
    "to_decimal",
    "validate",
    "verify_bounds",
]
