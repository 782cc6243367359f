"""Toolkit for pairwise intersecting Minkowski arrangements of homothets.

The package verifies, instance by instance, the machinery behind the
3^(d+1) bound on such arrangements: gauge geometry of symmetric convex
bodies, the shadow/lift construction with its parallel slab planes and width
ratios, exact volume-packing certificates in the lifted space, the geometric
ratio partition, and greedy chain extraction from k-distance sets.

Its records are NamedTuples or small classes, not dataclasses: importing
``dataclasses`` (with ``inspect``) and decorating took a fifth of the CLI's
start, and one process checks one arrangement.
"""

from .arrangement import (Arrangement, ChainPropertyError, Homothet,
                          PartitionLabel, SearchConfig,
                          arrangement_from_json, arrangement_size_bound,
                          arrangement_to_json, chain_to_arrangement,
                          cube_arrangement, find_intersection_violation,
                          find_minkowski_violation, partition_classes,
                          search_arrangement)
from .bodies import (BallBody, BodyError, HPolytopeBody, SymmetricBody,
                     VPolytopeBody, body_from_json, body_to_json,
                     distance_table, l1_ball, linf_ball)
from .kdistance import (UNDEFINED, ChainResult, DistanceSpectrum, PointSet,
                        chain_bound_floor, chain_to_json,
                        find_chain_violation, greedy_chain, grid_set,
                        guaranteed_length, pointset_from_json,
                        pointset_to_json, spectrum, verify_chain)
from .lifting import (CoincidentCentersError, DegenerateWedgeError,
                      LiftedConfig, ProjectionFrame, ShadowData,
                      ShadowIntersectionError, SlabPair, build_frame, lift,
                      pair_diagnostics, ratio, shadow, shadow_with_x,
                      slab_pair, verify_ratio_identity, verify_slab)
from .linalg import Vector, affine_rank
from .packing import (PackingCertificate, SlabFamily, certificate_to_json,
                      family_from_arrangement, lifted_packing_pipeline,
                      slab_packing_check)
from .polytopes import ConvexPolytope, hull, volume
from .scalars import Scalar, format_scalar, parse_scalar

__version__ = "0.1.0"
