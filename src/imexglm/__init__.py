"""IMEX general linear methods of DIMSIM type: tableaus, stepping,
stability analysis, and 2D method-of-lines benchmarks.

The package exports the entry points below; everything else is imported
from its module (imexglm.tableau, .methods, .integrator, .stability,
.problems, .harness)."""

from .tableau import validate_method
from .methods import resolve_method
from .integrator import integrate
from .stability import (StabilityQuery, constrained_region_area,
                        optimize_explicit_component)
from .problems import (allen_cahn_problem, burgers_problem,
                       dahlquist_split_problem, reference_solution)

__version__ = "0.1.0"
