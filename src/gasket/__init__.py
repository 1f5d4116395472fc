"""Exact-arithmetic Apollonian circle packings and super-packings."""

from .core import (Circle, GasketError, InvalidCircleError,
                   InvalidQuadrupleError, PairRelation, Q_D, Q_L, Q_W,
                   W_STANDARD, augmented_from_circles, circle_from_row,
                   circle_to_row, config_of, descartes_defect, divisor,
                   extend_to_augmented, is_descartes_quadruple, line_to_row,
                   orientation, pair_relation, row_to_circle,
                   validate_augmented, validate_quadruple)
from .group import (GeneratorLetter, GroupWord, J0, StabilizerMatrix,
                    StabilizerType, apply, conjugate_J0, generator_matrix,
                    is_aut_QD, is_lorentz_integer, is_normal_form, letter,
                    lorentz_point, lorentz_point_inverse, normalize_word,
                    perm_matrix, stabilizer_matrix)
from .classify import (CensusRow, ReducedForm, SuperIntegralityClass,
                       SuperIntegralityStatus, is_root_quadruple, kappa,
                       orbit_census, printed_augmented, printed_form,
                       reduce_to_ground, reduced_form, root_quadruple,
                       super_integrality_class)
from .complete import (CompletionError, complete,
                       complex_descartes_linear_holds,
                       complex_descartes_quadratic_holds,
                       strong_integrality_from_three)
from .packing import (EnumerationBudget, PackedCircle, Window,
                      bounding_packing, contains_oriented, generate_packing,
                      generate_superpacking, locate_in_unit_square,
                      nesting_depth_geometric, reflect_row_x, reflect_row_y,
                      transform_row, translate_row, unit_square_symmetries,
                      window_touches)
from .svg import RenderOptions, render_svg, residue_symmetry_check

__version__ = "0.1.0"
