"""Exact computational algebra for polynomial solution modules of
semialgebraic linear differential operators: sparse rational
polynomials, Groebner bases and syzygies, Sturm real-root isolation,
quasi-monic division with certificates, vanishing ideals of stratified
semialgebraic sets, and the stratified operator pipeline."""

from .errors import (DiffmodError, DomainError, ManifestError,
                     StructuralError, UnsupportedInputError,
                     WitnessSearchError)
from .orders import (ModuleOrder, MonomialOrder, block_order, elim_order,
                     grevlex_order, lex_order, top_order)
from .poly import (PolyVec, Polynomial, Ring, linear_change_of_vars,
                   mat_det, mat_inverse)
from .groebner import (SubmoduleBasis, buchberger, critical_l,
                       critical_l_columns, eliminate, full_module, ideal,
                       intersect, module_equal, normal_form, poly_exact_div,
                       saturate, solve_inhomogeneous, syzygy_module)

__version__ = "0.1.0"
