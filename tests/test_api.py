"""The public names of ``kjdt``: change this list only on purpose."""
from types import ModuleType

import kjdt

PUBLIC = [
    "BudgetExceeded", "DOT", "DottedTableau", "EquivalenceVerdict", "GammaElement",
    "JdtClass", "KjdtError", "MarkedRootData", "MinusculePoset", "NonMinusculePoset",
    "Permutation", "PosetError", "PosetFamily", "RootSystem", "Shape",
    "SignedKElement", "SkewShape", "Tableau", "URTVerdict", "WeakTableau",
    "WeylElement", "WindowExceeded", "ambient_grid", "ambient_shifted",
    "build_poset", "cayley_plane", "conjecture_search", "conjugate", "doubling",
    "dual_class", "dual_shape", "enumerate_shapes", "euler_pairing",
    "fat_hook_urt", "forward_slide", "freudenthal", "grassmannian_permutation",
    "grothendieck_times_shape", "hecke_of_tableau", "hecke_of_word",
    "hecke_product", "infusion", "is_urt", "jdt_class", "kknuth_basic_moves",
    "kknuth_equiv", "lagrangian", "lambda_from_root_data", "lds", "lis",
    "max_orthogonal", "maximal_tableau", "minimal_tableau", "multiply",
    "parse_poset", "parse_tableau", "pieri_A", "pieri_B", "quadric_even",
    "quadric_odd", "reading_words", "rect_greedy", "rectify_all", "resolutions",
    "reverse_slide", "rook_strips_over", "root_system", "stable_grothendieck_coeffs",
    "structure_constant", "superstandard", "swap", "tableau_product",
    "to_schubert_basis", "type_a", "urt_census", "verify_poset_embedding",
    "weak_kknuth_equiv", "wx_act",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(kjdt).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC
