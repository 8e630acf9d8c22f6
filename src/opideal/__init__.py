"""Finite-dimensional toolkit for symmetric gauge norms, nest-relative
triangular truncations and factorizations, classical matrix-group
decompositions, and finite-group invariant means."""

from .amenable import (FiniteGroup, Functional, GroupFunction, RegularRep,
                       UnitaryRep, arens_product, cyclic_group, delta_functional,
                       dihedral_group, gns_regular, integrate_rep,
                       invariance_residual, invariant_means, is_mean,
                       left_regular_rep, quaternion_group, regular_character,
                       sigma, sigma_dual, symmetric_group, translate_left,
                       translate_right, trivial_group, triviality_test,
                       uniform_mean)
from .classical import (CLASSICAL_TYPES, CartanFactors, IwasawaFactors,
                        StructureData, algebra_membership, algebra_project,
                        cartan_decompose, cartan_involution,
                        default_structure, group_membership,
                        irreducibility_check, iwasawa_algebra_split,
                        iwasawa_decompose, random_group_element,
                        regular_eigenflag, validate_structure)
from .errors import DomainError, InputError
from .factor import LdlFactors, QbFactors, ldl_nest, nilpotency_check, qb_nest
from .harish import (BlockSplit, HCFactors, hc_action, hc_cocycle,
                     hc_domain_test, hc_factorize, lower_unipotent,
                     upper_unipotent)
from .nest import (Flag, Partition, is_in_nest_algebra, project,
                   refinement_identities_check, triangular_integral,
                   truncate_diag, truncate_lower, truncate_upper,
                   truncation_norm_experiment)
from .symfunc import (BoydEstimate, DualNormResult, NonincreasingSequence,
                      SymNormFunc, adjoint_phi_eval, boyd_estimate, contract,
                      contraction_norm, dilate, dilation_norm, dual_gauge,
                      phi_eval, phi_norm, singular_values)

__version__ = "0.1.0"
