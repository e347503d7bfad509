"""K-theoretic jeu de taquin on minuscule posets.

Slides, infusion, rectification, unique rectification targets, K-Knuth
word rewriting, and the combinatorial K-theory ring whose structure
constants are the K-theoretic Schubert calculus of the minuscule
homogeneous spaces.
"""

from .errors import (
    BudgetExceeded,
    KjdtError,
    NonMinusculePoset,
    PosetError,
    WindowExceeded,
)
from .kring import (
    GammaElement,
    SignedKElement,
    dual_class,
    euler_pairing,
    fat_hook_urt,
    grothendieck_times_shape,
    multiply,
    pieri_A,
    pieri_B,
    stable_grothendieck_coeffs,
    structure_constant,
    to_schubert_basis,
)
from .poset import (
    MinusculePoset,
    PosetFamily,
    Shape,
    SkewShape,
    ambient_grid,
    ambient_shifted,
    build_poset,
    cayley_plane,
    enumerate_shapes,
    freudenthal,
    lagrangian,
    max_orthogonal,
    parse_poset,
    quadric_even,
    quadric_odd,
    rook_strips_over,
    type_a,
)
from .rootsys import (
    MarkedRootData,
    RootSystem,
    WeylElement,
    lambda_from_root_data,
    root_system,
    verify_poset_embedding,
)
from .tableau import (
    DOT,
    DottedTableau,
    JdtClass,
    Tableau,
    URTVerdict,
    WeakTableau,
    conjugate,
    doubling,
    forward_slide,
    hecke_of_tableau,
    infusion,
    is_urt,
    jdt_class,
    maximal_tableau,
    minimal_tableau,
    parse_tableau,
    reading_words,
    rect_greedy,
    rectify_all,
    resolutions,
    reverse_slide,
    superstandard,
    swap,
    tableau_product,
    urt_census,
    wx_act,
)
from .words import (
    EquivalenceVerdict,
    Permutation,
    conjecture_search,
    grassmannian_permutation,
    hecke_of_word,
    hecke_product,
    kknuth_basic_moves,
    kknuth_equiv,
    lds,
    lis,
)

__version__ = "0.1.0"
