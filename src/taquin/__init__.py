"""Jeu de taquin promotion on rectangular standard Young tableaux.

The package builds, for each permutation of 1..n, the unique standard
tableau of an n-by-m rectangle (m >= n) lying in a promotion orbit of the
smallest possible order n, and inverts that map by reading residues off a
diagonal.  A brute-force verification layer reproduces every checkable
claim at desk scale, including the cyclic sieving counts from the exact
q-analogue of the hook length formula.
"""

from .shapes import (
    Box,
    Diagonal,
    Partition,
    Rectangle,
    SkewShape,
    box_leq,
    box_less,
    complement_box,
    complement_diagonal,
    complement_shape,
    contains,
    diagonal_from_boxes,
    diagonal_from_lambda_plus,
    enumerate_diagonals,
    format_partition,
    parse_partition,
    removable_corners,
    staircase_diagonal,
    transpose,
)
from .tableaux import (
    PartialTableau,
    TableauError,
    TableauFormatError,
    complement_tableau,
    format_grid,
    from_file_dict,
    from_rows,
    inverse_promotion,
    is_filled,
    is_standard_normalized,
    promotion,
    promotion_order,
    reading_word,
    rectify,
    to_file_dict,
)
from .words import (
    DescentSequence,
    EquivalenceVerdict,
    PeriodicSequence,
    Permutation,
    all_permutations,
    augmented_word,
    bounded_equivalence,
    conjugate_by_reversal,
    descent_sequence,
    descents,
    elementary_knuth,
    identity,
    insertion_tableau,
    inverse_word_sequence,
    major_index,
    parse_permutation,
    prefix_terms,
    promotion_cycle,
    reversal,
    right_multiply,
    strict_knuth,
)
from .orbits import (
    BoxSequenceRun,
    NotMinimalOrbitError,
    augmented_insertion_tableau,
    box_sequence,
    column_sequence,
    delta_closed_form,
    forward_tableau,
    forward_tableau_by_peeling,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
    superstandard_choice,
    tableau_from_box_sequence,
)
from .verify import (
    EnumerationCapError,
    OrbitTable,
    QPolynomial,
    SuiteReport,
    count_standard_tableaux,
    hook_lengths,
    orbit_table,
    q_hook_at_root,
    q_hook_polynomial,
    run_suite,
    standard_tableaux,
)

__version__ = "0.1.0"
