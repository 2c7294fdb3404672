"""Exact local invariants of binary quadratic forms over p-adic rings and
the mean value of class number times regulator over quadratic fields."""

from .densities import (
    IdentityCheck,
    PiPower,
    census_check,
    census_expected,
    extension_census,
    local_density,
    mass_identity_check,
    orbital_volume_closed,
    remark_sums_check,
)
from .fields import (
    DiscriminantTable,
    cached_table,
    local_type,
    local_type_label,
)
from .meanvalue import (
    LocalCondition,
    condition_mask,
    convergence_report,
    euler_factor,
    euler_product,
    parse_conditions,
    predicted_constant,
    predicted_prefactor,
)
from .orbits import (
    ALG_COMPLEX,
    ALG_COMPLEX_PAIR,
    ALG_REAL_PAIR,
    ALG_SPLIT,
    BinaryQF,
    QuadraticAlgebraDescriptor,
    StandardRep,
    act,
    congruence_solution_check,
    coset_normal_form_check,
    group_order,
    lift_saturation_check,
    orbit_size,
    ramified_algebra,
    stabilizer_elements,
    stabilizer_order,
    standard_representatives,
    torus_order,
    unramified_algebra,
)
from .residue import (
    CapacityError,
    ResidueRing,
    SquareClassLabel,
    kronecker,
    ramified_labels,
    square_class,
    square_class_labels,
    unit_group_generators,
)

__all__ = [name for name in dir() if not name.startswith("_")]
