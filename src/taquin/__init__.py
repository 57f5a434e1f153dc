"""Jeu de taquin promotion on rectangular standard Young tableaux.

The package builds, for each permutation of 1..n, the unique standard
tableau of an n-by-m rectangle (m >= n) lying in a promotion orbit of the
smallest possible order n, and inverts that map by reading residues off a
diagonal.  A brute-force verification layer reproduces every checkable
claim at desk scale, including the cyclic sieving counts from the exact
q-analogue of the hook length formula.

The package namespace holds the names the README and the demos use, and
the package's exceptions; everything else is imported from its module.
"""

from .shapes import (
    Diagonal,
    Rectangle,
    parse_partition,
    staircase_diagonal,
)
from .tableaux import (
    TableauError,
    TableauFormatError,
    format_grid,
    from_rows,
    promotion,
)
from .words import (
    bounded_equivalence,
    descent_sequence,
    descents,
    elementary_knuth,
    inverse_word_sequence,
    parse_permutation,
    prefix_terms,
    promotion_cycle,
    right_multiply,
    strict_knuth,
)
from .orbits import (
    NotMinimalOrbitError,
    box_sequence,
    column_sequence,
    delta_closed_form,
    forward_tableau,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
    tableau_from_box_sequence,
)
from .sieving import q_hook_at_root, q_hook_polynomial
from .sweep import EnumerationCapError, RankLaneError, orbit_table
from .verify import run_suite

__version__ = "0.1.0"
