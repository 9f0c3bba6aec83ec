"""isgenum: exhaustive enumeration of finite inverse semigroups.

Every inverse semigroup of order n arises, up to isomorphism, by putting a
suitable partial order on the matrix-unit basis of a block algebra built
from a meet-semilattice of idempotents, a D-partition of it, and one group
per block.  This package generates those ingredients, searches the orders,
applies the construction, and rejects isomorphic duplicates.
"""

from .engine import (
    CountLedger,
    EnumerationConfig,
    RunResult,
    breakdown_csv,
    enumerate_counts_only,
    enumerate_fixed,
    enumerate_semigroups,
    run_enumeration,
    write_cayley_files,
    write_semilattice_file,
)
from .esn import (
    InverseSemigroup,
    d_restriction_from_table,
    esn,
    natural_order_from_table,
    validate_inverse_semigroup,
)
from .gposets import (
    BasisOrder,
    GroupoidBasis,
    e_groupoid,
    g_posets,
    poset_possibilities,
    validate_hypotheses,
)
from .groups import (
    MAX_CATALOG_ORDER,
    Group,
    catalog,
    is_isomorphic,
)
from .iso import (
    brute_force_isomorphic,
    e_coloring,
    invariants,
    is_isoc,
    lonely_idempotents,
)
from .orders import (
    MeetSemilattice,
    Poset,
    colored_isomorphisms,
    down_levels,
    format_cover_line,
    meet_semilattices,
    parse_cover_line,
    semilattice_count,
    up_down_levels,
    up_levels,
)
from .shapes import (
    admissible_compositions,
    d_partitions,
    group_maps,
    is_d_partition,
    partitions,
)

__version__ = "0.1.0"

__all__ = [
    "BasisOrder",
    "CountLedger",
    "EnumerationConfig",
    "Group",
    "GroupoidBasis",
    "InverseSemigroup",
    "MAX_CATALOG_ORDER",
    "MeetSemilattice",
    "Poset",
    "RunResult",
    "admissible_compositions",
    "breakdown_csv",
    "brute_force_isomorphic",
    "catalog",
    "colored_isomorphisms",
    "d_partitions",
    "d_restriction_from_table",
    "down_levels",
    "e_coloring",
    "e_groupoid",
    "enumerate_counts_only",
    "enumerate_fixed",
    "enumerate_semigroups",
    "esn",
    "format_cover_line",
    "g_posets",
    "group_maps",
    "invariants",
    "is_d_partition",
    "is_isoc",
    "is_isomorphic",
    "lonely_idempotents",
    "meet_semilattices",
    "natural_order_from_table",
    "parse_cover_line",
    "partitions",
    "poset_possibilities",
    "run_enumeration",
    "semilattice_count",
    "up_down_levels",
    "up_levels",
    "validate_hypotheses",
    "validate_inverse_semigroup",
    "write_cayley_files",
    "write_semilattice_file",
]
