"""Jeu de taquin promotion on rectangular standard Young tableaux.

The package builds, for each permutation of 1..n, the unique standard
tableau of an n-by-m rectangle (m >= n) lying in a promotion orbit of the
smallest possible order n, and inverts that map by reading residues off a
diagonal.  A brute-force verification layer reproduces every checkable
claim at desk scale, including the cyclic sieving counts from the exact
q-analogue of the hook length formula.

The package namespace holds the names the README and the demos use, and
the package's exceptions; everything else is imported from its module.
The check layers (`sequences`, `sieving`, `sweep`, `verify`) enter
`sys.modules` unrun (`LazyLoader`), and `__getattr__` resolves their names
in `_LAZY` on first access, so `import taquin` and the pipe commands
compile no check layer.
"""

import importlib.util
import sys

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
from .words import parse_permutation, promotion_cycle, right_multiply
from .orbits import (
    NotMinimalOrbitError,
    forward_tableau,
    invert,
    minimal_orbit_tableau,
    reverse_tableau,
)

__version__ = "0.1.0"

_LAZY = {"q_hook_at_root": "sieving", "q_hook_polynomial": "sieving", "run_suite": "verify",
         "EnumerationCapError": "sweep", "RankLaneError": "sweep", "orbit_table": "sweep",
         **dict.fromkeys(("bounded_equivalence", "box_sequence", "column_sequence", "delta_closed_form",
                          "descent_sequence", "descents", "elementary_knuth", "inverse_word_sequence",
                          "prefix_terms", "strict_knuth", "tableau_from_box_sequence"), "sequences")}
for _layer in ("sequences", "sieving", "sweep", "verify"):  # each runs on its first attribute access
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_layer] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_layer])


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(globals()[_LAZY[name]], name)
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
