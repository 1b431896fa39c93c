"""heckealg: exact twisted affine and graded Hecke algebras from
combinatorial cuspidal data, with representation counting."""

from .coeffs import LaurentZ, TorusAlgebraElement, z_bracket
from .hecke import (AffineDescriptor, GradedDescriptor, GradedElement,
                    HeckeElement, affine_to_graded, bernstein_divide,
                    graded_multiply, im_involution, is_central, multiply,
                    multiply_crossed, quotient_z1, serialize_element,
                    spread_invariant, symmetrize)
from .params import ParamPair, a_from_ell, lambda_from_jordan
from .pipeline import (BUILTIN_EXAMPLES, BlockDatum, HeckeReport,
                       InertialDatum, ValidationError, assemble,
                       build_rgroup, datum_from_json, root_component,
                       specialize_report, validate)
from .root_data import (Root, RootDatum, RootDatumError, build_classical,
                        empty_datum, product, weyl_order_classical)
from .spectra import (FiniteGroup, classify, count_twisted_irreps,
                      extended_quotient_count, is_distinguished,
                      twisted_algebra_center_dim)
from .weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement, RGroup,
                   WeylElement, WeylGroup, cone_classify, min_coset_reps,
                   stabilizer_of_point)

__version__ = "0.1.0"
