"""patlab: exact, desk-scale study of permutation classes defined by distant
and almost-distant patterns.

The package enumerates avoidance classes with a pruned generating tree (with
a brute-force oracle alongside), implements the structure maps F, G, and H
between the monotone classes M(k,j,i) together with their inverses where
they exist, constructs and discovers forbidden-pattern bases for the image
of H, and verifies equivalences and count sandwiches by exhaustive
computation.
"""

# Re-exported: the names the tests, scripts and README use, plus every error
# class. Result records and constants are imported from their modules.
from .enumeration import (
    avoids_basis,
    brute_force_avoiders,
    brute_force_counts,
    count_sequence,
    levels_avoiders,
)
from .errors import (
    BudgetExceededError,
    ClassExpressionError,
    DomainError,
    InternalCheckError,
    NotInImageError,
    PatlabError,
    UsageError,
    VerificationFailure,
)
from .maps import (
    invert_F,
    map_F,
    map_G,
    map_H,
    map_H_conjugate,
    naive_reverse_H,
    role_sets,
)
from .patterns import (
    basis_reverse_complement,
    basis_union,
    distant_monotone_basis,
    expand_distant,
    make_basis,
    monotone_basis,
    parse_class_expression,
)
from .perms import (
    check_perm,
    contains,
    direct_sum,
    format_perm,
    identity,
    lis_tables,
    parse_perm,
    reverse_complement,
)
from .verification import (
    certify_map,
    construct_S_explicit,
    discover_basis,
    distant_growth_bounds,
    growth_diagnostics,
    sandwich_check,
    survey_almost_distant,
    verify_wilf,
)

__version__ = "0.1.0"
