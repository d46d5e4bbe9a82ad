"""transtri: nudge geometric triangulations into transverse position.

Given a triangulated region of the plane or of space and a smooth
parametric map into the same space, the pipeline composes the
triangulation with a chain of compactly supported ambient
diffeomorphisms, one per simplex of each dimension below the ambient
one, so that the map meets every open simplex transversally.  A
numerical verifier certifies the result: it finds intersections by
Gauss-Newton refinement and tests the spanning condition of the combined
differentials.
"""

from .config import PipelineConfig
from .errors import (ConfigError, DegenerateGeometryError, DomainError, MeshError,
                     NewtonDivergenceError, PerturbationError, SamplingFailureError)
from .simplicial import (GeometricRealization, PointLocation, Simplex,
                         SimplicialComplex, barycenter, barycentric_subdivision,
                         build_complex, grid_triangulation, point_locate,
                         read_mesh, skeleton, star, write_mesh)
from .smoothmap import (CircleMap, Domain, LineMap, PointMap, PolyCurveMap,
                        SmoothMap, SurfacePatchMap, TorusKnotMap, map_from_params)
from .charts import (AmbientDiffeo, TriangulationState, TubularChart,
                     dump_chain_metadata, make_chart)
from .perturb import LocalDiffeo, estimate_c_sigma, make_transverse, perturb_level
from .verify import (IntersectionRecord, TransversalityReport,
                     boundary_crossing_counts, boundary_decay_check,
                     fd_jacobian_check, find_intersections,
                     report_summary, report_to_csv, verify_triangulation)

__version__ = "0.1.0"
