"""Exact algebra of semilinear sets in dimensions one and two, with
definability certificates and a reduct classifier."""

__version__ = "0.1.0"

from .errors import (IterationCapExceeded, NoIsolatingShift, PairingMismatch,
                     PreconditionError, RationalTooLarge, ReplayError,
                     SemilinError, UnboundedFiber)
from .intervals import (EMPTY, FULL, Interval, IntervalUnion, OneDimClass,
                        OneDimKind, SetClass, affine_op, bool_op, boundedness,
                        classify_one_dim, complement, components, difference,
                        endpoints, intersect, isolate_interval, metrics,
                        normalize, points, symmdiff, topo_op, translate, union)
from .planar import (Carrier, Decomposition, PlanarComplex, Point, Seg,
                     Subgroup2D, VERTICAL, VSeg, affine_part, decompose,
                     germ_equal, pc_affine, pc_bool_op, pc_boundedness,
                     pc_normalize, pc_project, pc_section, pc_topo, stab_bd)
from .family import (AffineFn, Band, Family, Graph, bounded_params,
                     endpoint_family, fiber, match_endpoints, param_domain,
                     uniform_length_bound)
from .trace import Trace, TraceStep, compose, replay
from .synthesis import derive_interval, derive_ray
from .classifier import (Level, LinForm1D, LinForm2D, RayCert, Verdict,
                         classify, is_affine_combo, sb_certificate)
