"""The public names of ``kjdt`` (change this list only on purpose), the imports of its
modules, where family kinds are named, and the errors that refuse malformed input."""
import ast
import copy
import sys
from pathlib import Path
from types import ModuleType

import pytest

import kjdt
from kjdt import Shape

PUBLIC = [
    "BudgetExceeded", "DOT", "DottedTableau", "EquivalenceVerdict", "GammaElement",
    "JdtClass", "KjdtError", "MarkedRootData", "MinusculePoset", "NonMinusculePoset",
    "Permutation", "PosetError", "PosetFamily", "RootSystem", "Shape",
    "SignedKElement", "SkewShape", "Tableau", "URTVerdict", "WeakTableau",
    "WeylElement", "WindowExceeded", "ambient_grid", "ambient_shifted",
    "build_poset", "cayley_plane", "conjecture_search", "conjugate", "doubling",
    "dual_class", "enumerate_shapes", "euler_pairing",
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
    "wx_act",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(kjdt).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC


def test_tableau_stores_its_levels_and_no_cache():
    # A value or hash cache comes back only on purpose, with benchmark pairs to justify it.
    assert kjdt.Tableau.__slots__ == ("poset", "mask", "level_values", "masks")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement of a module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def test_library_modules_use_every_name_they_import():
    # __init__.py imports names to re-export them, so it is exempt
    unused = []
    for path in sorted(Path(kjdt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused


def _absolute_imports(tree: ast.Module) -> dict[str, int]:
    """Top-level package of each absolute import of a module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names[node.module.split(".")[0]] = node.lineno
    return names


def test_library_imports_only_the_standard_library():
    # kjdt has no dependencies: every absolute import is a stdlib module
    foreign = []
    for path in sorted(Path(kjdt.__file__).parent.glob("*.py")):
        for name, line in _absolute_imports(ast.parse(path.read_text())).items():
            if name not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{line} {name}")
    assert not foreign


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` bound by a def, class or assignment, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, reads as attributes or imports by name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_library_defines_no_unused_private_names():
    # a private module-level name that no module of kjdt reads is dead code
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(kjdt.__file__).parent.glob("*.py"))
    }
    used = set().union(*map(_referenced_names, trees.values()))
    unused = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in _private_definitions(tree).items()
        if private not in used
    ]
    assert not unused


# The imports a library function may make when it runs, each for a reason:
# fixtures loads only for `verify`, and multiprocessing only when `verify`
# starts a pool.
LAZY_IMPORTS = {("cli.py", "fixtures"), ("cli.py", "multiprocessing")}


def test_library_imports_at_module_level_except_two_lazy_imports():
    lazy = set()
    for path in sorted(Path(kjdt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and id(node) not in top:
                lazy.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and id(node) not in top:
                lazy.add((path.name, node.module))
    assert lazy == LAZY_IMPORTS


def test_words_imports_nothing_of_kjdt_but_its_errors():
    # words sit under the tableaux that read them, so no import cycle can form
    tree = ast.parse((Path(kjdt.__file__).parent / "words.py").read_text())
    relative = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative == {"errors"}


def test_rootsys_imports_nothing_of_kjdt_but_errors_and_poset():
    # the verifier checks the posets from root data alone, not through the slide engine
    tree = ast.parse((Path(kjdt.__file__).parent / "rootsys.py").read_text())
    relative = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative == {"errors", "poset"}


# Public functions and methods that no library module reads, each kept for a reason.
UNREAD_BY_THE_LIBRARY = {
    "GammaElement.coefficient": "public element API",
    "pieri_A_by_counting": "the words benchmark workload calls it",
    "pieri_B_by_class": "a cross-check route for pieri_B",
    "Tableau.from_levels": "the frozen benchmark tracer reads it (ROADMAP item 7)",
    "JdtClass.member_keys": "the frozen benchmark tracer reads it (ROADMAP item 7)",
    "MinusculePoset.expand_neighbors": "the frozen benchmark tracer reads it (ROADMAP item 7)",
    "RootSystem.reflect": "the reference for the reflection table",
}


def test_library_reads_every_public_name_it_defines():
    # a function or method only tests reach belongs in the tests; the functions
    # kjdt exports are its API, and the re-exports in __init__.py are no reads
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(kjdt.__file__).parent.glob("*.py"))
    }
    used = set().union(*(_referenced_names(t) for name, t in trees.items() if name != "__init__.py"))
    unread = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in PUBLIC:
                defined = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                defined = [
                    (f"{node.name}.{f.name}", f.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
            else:
                continue
            unread.update(q for q, name in defined if not name.startswith("_") and name not in used)
    assert unread == set(UNREAD_BY_THE_LIBRARY)


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Name of the outermost function around each node of a module, by ``id``."""
    owner = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(top):
                owner[id(node)] = top.name
    return owner


# Where a module other than poset.py builds a family by its kind.
FAMILY_BUILDERS = {("rootsys.py", "grid_family_for")}


def test_no_module_but_poset_names_a_family_kind():
    # family facts are rows of poset._FAMILIES; other modules read the poset's attributes
    from kjdt.poset import _FAMILIES

    named = []
    for path in sorted(Path(kjdt.__file__).parent.glob("*.py")):
        if path.name == "poset.py":
            continue
        tree = ast.parse(path.read_text())
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in _FAMILIES:
                where = owner.get(id(node))
                if (path.name, where) not in FAMILY_BUILDERS:
                    named.append(f"{path.name}:{node.lineno} {node.value!r} in {where}")
    assert not named


def _grid_row():
    return kjdt.parse_tableau(kjdt.ambient_grid(3, 3), "1,2")


def _gamma():
    return kjdt.GammaElement(kjdt.type_a(2, 2), {1: 1})


def _one_box():
    return kjdt.type_a(2, 2).shape("1")


def _corner():
    return kjdt.Tableau.from_dict(kjdt.ambient_grid(3, 3), {(1, 1): 4})


def _skew():
    poset = kjdt.type_a(2, 2)
    return kjdt.SkewShape(poset.shape("2,1"), poset.shape("1"))


# Malformed input and the KjdtError subclass that refuses it.  Item 5 of the
# roadmap grows this table to every public callable.
REFUSALS = [
    ("type_a-bool", lambda: kjdt.type_a(True, 2), kjdt.PosetError),
    ("type_a-float", lambda: kjdt.type_a(2.5, 2), kjdt.PosetError),
    ("ambient_grid-str", lambda: kjdt.ambient_grid("3", 3), kjdt.PosetError),
    ("build_poset-list-kind", lambda: kjdt.build_poset(kjdt.PosetFamily(["a"], (2, 2))), kjdt.PosetError),
    ("build_poset-list-params", lambda: kjdt.build_poset(kjdt.PosetFamily("a", [3, 4])), kjdt.PosetError),
    ("root_system-list-kind", lambda: kjdt.root_system(["A"], 3), kjdt.PosetError),
    ("hecke_of_word-str", lambda: kjdt.hecke_of_word((1, "a")), kjdt.KjdtError),
    ("hecke_of_word-bool", lambda: kjdt.hecke_of_word((1, True)), kjdt.KjdtError),
    ("kknuth_equiv-bool-letter", lambda: kjdt.kknuth_equiv((1, 2), (True, 2)), kjdt.KjdtError),
    ("kknuth_basic_moves-str", lambda: kjdt.kknuth_basic_moves((1, "a")), kjdt.KjdtError),
    ("kknuth_basic_moves-str-max_len", lambda: kjdt.kknuth_basic_moves((1, 2), max_len="3"), kjdt.KjdtError),
    ("kknuth_basic_moves-negative-max_len", lambda: kjdt.kknuth_basic_moves((1, 2), max_len=-1), kjdt.KjdtError),
    ("kknuth_basic_moves-bool-max_len", lambda: kjdt.kknuth_basic_moves((1, 2), max_len=True), kjdt.KjdtError),
    ("kknuth_basic_moves-float-max_len", lambda: kjdt.kknuth_basic_moves((1, 2), max_len=2.5), kjdt.KjdtError),
    ("kknuth_basic_moves-str-weak", lambda: kjdt.kknuth_basic_moves((1, 2), weak="no"), kjdt.KjdtError),
    ("kknuth_equiv-str-weak", lambda: kjdt.kknuth_equiv((1, 2), (2, 1), weak="no"), kjdt.KjdtError),
    ("kknuth_equiv-bool-budget", lambda: kjdt.kknuth_equiv((1, 2), (2, 1), budget=True), kjdt.KjdtError),
    (
        "jdt_class-bool-budget",
        lambda: kjdt.jdt_class(kjdt.parse_tableau(kjdt.type_a(2, 2), "1,2"), budget=True),
        kjdt.KjdtError,
    ),
    (
        "urt_census-bool-max_size",
        lambda: kjdt.urt_census(kjdt.parse_poset("a:2,2"), max_size=True),
        kjdt.KjdtError,
    ),
    ("pieri_A-float", lambda: kjdt.pieri_A((1,), 1.5), kjdt.PosetError),
    ("pieri_B-bool", lambda: kjdt.pieri_B((1,), True), kjdt.PosetError),
    ("grassmannian_permutation-bool", lambda: kjdt.grassmannian_permutation((True,)), kjdt.PosetError),
    ("grassmannian_permutation-float", lambda: kjdt.grassmannian_permutation((2.5,)), kjdt.PosetError),
    ("is_urt-float-pad", lambda: kjdt.is_urt(_grid_row(), pad=1.5), kjdt.KjdtError),
    ("is_urt-negative-pad", lambda: kjdt.is_urt(_grid_row(), pad=-1), kjdt.KjdtError),
    ("pieri_A-float-rows", lambda: kjdt.pieri_A((1,), 1, rows=2.5), kjdt.KjdtError),
    ("pieri_A-negative-cols", lambda: kjdt.pieri_A((1,), 1, cols=-1), kjdt.KjdtError),
    ("GammaElement-mul-bool", lambda: _gamma() * True, kjdt.KjdtError),
    ("GammaElement-rmul-bool", lambda: True * _gamma(), kjdt.KjdtError),
    ("GammaElement-mul-float", lambda: _gamma() * 2.5, kjdt.KjdtError),
    ("GammaElement-rmul-float", lambda: 2.5 * _gamma(), kjdt.KjdtError),
    ("GammaElement-mul-str", lambda: _gamma() * "2", kjdt.KjdtError),
    (
        "structure_constant-skew-shape",
        lambda: kjdt.structure_constant(_one_box(), _one_box(), _skew()),
        kjdt.PosetError,
    ),
    ("euler_pairing-str", lambda: kjdt.euler_pairing(_one_box(), "2"), kjdt.PosetError),
    ("multiply-int", lambda: kjdt.multiply(5, 5), kjdt.PosetError),
    ("multiply-int-right", lambda: kjdt.multiply(_gamma(), 5), kjdt.PosetError),
    ("jdt_class-bool-max_inner", lambda: kjdt.jdt_class(_grid_row(), seed_is_urt=True, max_inner=True), kjdt.KjdtError),
    ("jdt_class-negative-max_inner", lambda: kjdt.jdt_class(_grid_row(), seed_is_urt=True, max_inner=-1), kjdt.KjdtError),
    ("jdt_class-float-max_inner", lambda: kjdt.jdt_class(_grid_row(), seed_is_urt=True, max_inner=1.5), kjdt.KjdtError),
    ("jdt_class-max_inner-without-seed_is_urt", lambda: kjdt.jdt_class(_grid_row(), max_inner=1), kjdt.KjdtError),
    ("dual_class-str", lambda: kjdt.dual_class("2"), kjdt.PosetError),
    ("to_schubert_basis-int", lambda: kjdt.to_schubert_basis(5), kjdt.PosetError),
    ("rook_strips_over-int", lambda: kjdt.rook_strips_over(3), kjdt.PosetError),
    ("pieri_B-str-cols", lambda: kjdt.pieri_B((1,), 1, cols="3"), kjdt.KjdtError),
    ("pieri_B-float-cols", lambda: kjdt.pieri_B((1,), 1, cols=2.5), kjdt.KjdtError),
    ("pieri_B_by_class-str-cols", lambda: kjdt.kring.pieri_B_by_class((1,), 1, cols="3"), kjdt.KjdtError),
    ("fat_hook_urt-str-pad", lambda: kjdt.fat_hook_urt((2, 1), _corner(), pad="x"), kjdt.KjdtError),
    ("fat_hook_urt-negative-pad", lambda: kjdt.fat_hook_urt((2, 1), _corner(), pad=-1), kjdt.KjdtError),
    ("kknuth_equiv-negative-slack", lambda: kjdt.kknuth_equiv((1, 1), (1,), slack=-5), kjdt.KjdtError),
    ("kknuth_equiv-float-slack", lambda: kjdt.kknuth_equiv((1, 1), (1,), slack=1.5), kjdt.KjdtError),
    ("kknuth_equiv-weak-negative-slack", lambda: kjdt.kknuth_equiv((1, 1), (1,), weak=True, slack=-5), kjdt.KjdtError),
    ("conjecture_search-str-max_len", lambda: kjdt.conjecture_search("2", 2), kjdt.KjdtError),
    ("conjecture_search-float-max_letter", lambda: kjdt.conjecture_search(2, 1.5), kjdt.KjdtError),
    ("conjecture_search-negative-slack", lambda: kjdt.conjecture_search(1, 2, slack=-1), kjdt.KjdtError),
    ("conjecture_search-zero-budget", lambda: kjdt.conjecture_search(1, 2, budget=0), kjdt.KjdtError),
    ("reading_words-str-limit", lambda: kjdt.reading_words(_grid_row(), limit="x"), kjdt.KjdtError),
    ("jdt_class-int", lambda: kjdt.jdt_class(3), kjdt.PosetError),
    ("rectify_all-int", lambda: kjdt.rectify_all(3), kjdt.PosetError),
    ("rect_greedy-int", lambda: kjdt.rect_greedy(3), kjdt.PosetError),
    ("urt_census-int", lambda: kjdt.urt_census(3), kjdt.PosetError),
    ("enumerate_shapes-int", lambda: kjdt.enumerate_shapes(3), kjdt.PosetError),
    ("conjugate-int", lambda: kjdt.conjugate(3), kjdt.PosetError),
    ("doubling-int", lambda: kjdt.doubling(3), kjdt.PosetError),
    ("infusion-int", lambda: kjdt.infusion(3, 3), kjdt.PosetError),
    ("infusion-int-right", lambda: kjdt.infusion(_corner(), 3), kjdt.PosetError),
    ("wx_act-int", lambda: kjdt.wx_act(3), kjdt.PosetError),
    ("hecke_of_tableau-int", lambda: kjdt.hecke_of_tableau(3), kjdt.PosetError),
    ("reading_words-int", lambda: kjdt.reading_words(3), kjdt.PosetError),
    ("tableau_product-int", lambda: kjdt.tableau_product(3, 3), kjdt.PosetError),
    ("tableau_product-int-right", lambda: kjdt.tableau_product(_corner(), 3), kjdt.PosetError),
    (
        "verify_poset_embedding-int",
        lambda: kjdt.verify_poset_embedding(kjdt.root_system("A", 3), 1, 3),
        kjdt.PosetError,
    ),
    (
        "verify_poset_embedding-int-system",
        lambda: kjdt.verify_poset_embedding(3, 1, kjdt.type_a(1, 3)),
        kjdt.PosetError,
    ),
    ("WeylElement-mul-int", lambda: kjdt.root_system("A", 2).identity() * 3, kjdt.PosetError),
]


@pytest.mark.parametrize("call, error", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_malformed_input_is_refused_with_a_kjdt_error(call, error):
    with pytest.raises(kjdt.KjdtError) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize(
    "name, argument",
    [
        ("is_urt-float-pad", "pad"),
        ("pieri_A-float-rows", "rows"),
        ("pieri_A-negative-cols", "cols"),
        ("jdt_class-bool-max_inner", "max_inner"),
        ("jdt_class-negative-max_inner", "max_inner"),
        ("jdt_class-float-max_inner", "max_inner"),
        ("pieri_B-str-cols", "cols"),
        ("pieri_B-float-cols", "cols"),
        ("pieri_B_by_class-str-cols", "cols"),
        ("fat_hook_urt-str-pad", "pad"),
        ("fat_hook_urt-negative-pad", "pad"),
        ("kknuth_equiv-negative-slack", "slack"),
        ("kknuth_equiv-float-slack", "slack"),
        ("kknuth_equiv-weak-negative-slack", "slack"),
        ("conjecture_search-str-max_len", "max_len"),
        ("conjecture_search-float-max_letter", "max_letter"),
        ("conjecture_search-negative-slack", "slack"),
        ("reading_words-str-limit", "limit"),
        ("kknuth_basic_moves-str-max_len", "max_len"),
        ("kknuth_basic_moves-negative-max_len", "max_len"),
        ("kknuth_basic_moves-bool-max_len", "max_len"),
        ("kknuth_basic_moves-float-max_len", "max_len"),
    ],
)
def test_a_refused_window_argument_is_named(name, argument):
    # not reported as an error about a window poset the caller never built
    call = {r[0]: r[1] for r in REFUSALS}[name]
    with pytest.raises(kjdt.KjdtError, match=f"^{argument} must be a non-negative integer"):
        call()


@pytest.mark.parametrize("name", ["kknuth_basic_moves-str-weak", "kknuth_equiv-str-weak"])
def test_a_weak_that_is_not_a_bool_is_named(name):
    # any truthy value picked the weak relation: "no" made (1, 2) and (2, 1) equivalent
    call = {r[0]: r[1] for r in REFUSALS}[name]
    with pytest.raises(kjdt.KjdtError, match="^weak must be a bool, not 'no'$"):
        call()


@pytest.mark.parametrize(
    "name, argument, kind",
    [
        ("structure_constant-skew-shape", "nu", "Shape"),
        ("euler_pairing-str", "mu", "Shape"),
        ("multiply-int", "a", "GammaElement"),
        ("multiply-int-right", "b", "GammaElement"),
        ("dual_class-str", "lam", "Shape"),
        ("to_schubert_basis-int", "g", "GammaElement"),
        ("rook_strips_over-int", "shape", "Shape"),
        ("jdt_class-int", "tab", "Tableau"),
        ("rectify_all-int", "tab", "Tableau"),
        ("rect_greedy-int", "tab", "Tableau"),
        ("urt_census-int", "poset", "MinusculePoset"),
        ("enumerate_shapes-int", "poset", "MinusculePoset"),
        ("conjugate-int", "tab", "Tableau"),
        ("doubling-int", "tab", "Tableau"),
        ("infusion-int", "s_tab", "Tableau"),
        ("infusion-int-right", "t_tab", "Tableau"),
        ("wx_act-int", "tab", "Tableau"),
        ("hecke_of_tableau-int", "tab", "Tableau"),
        ("reading_words-int", "tab", "Tableau or WeakTableau"),
        ("tableau_product-int", "s_tab", "Tableau"),
        ("tableau_product-int-right", "t_tab", "Tableau"),
        ("verify_poset_embedding-int", "poset", "MinusculePoset"),
        ("verify_poset_embedding-int-system", "system", "RootSystem"),
        ("WeylElement-mul-int", "other", "WeylElement"),
    ],
)
def test_a_refused_ring_argument_is_named(name, argument, kind):
    # not an AttributeError from deep inside the product
    call = {r[0]: r[1] for r in REFUSALS}[name]
    with pytest.raises(kjdt.KjdtError, match=f"^{argument} must be a {kind}, not "):
        call()


def _record_table():
    """Per record: class, positional args, the same as keywords, fields left to
    their defaults, args of an unequal record, exact repr, and whether it is frozen."""
    poset = kjdt.type_a(2, 2)
    one, two = poset.shape("1"), poset.shape("2")
    tab = kjdt.parse_tableau(poset, "1,2/2")
    other = kjdt.parse_tableau(poset, "1,2")
    system = kjdt.root_system("A", 2)
    images = system.identity().images
    return [
        (kjdt.PosetFamily, ("a", (2, 2)), {"kind": "a", "params": (2, 2)},
         {"params": ()}, ("a", (2, 3)), "PosetFamily(kind='a', params=(2, 2))", True),
        (kjdt.SkewShape, (two, one), {"outer": two, "inner": one},
         {}, (two, Shape(poset, 0)), "SkewShape('2'/'1')", True),
        (kjdt.WeylElement, (system, images), {"system": system, "images": images},
         {}, (system, (-1, 3, 2)), "WeylElement(system=RootSystem(A2, 3 positive roots), "
         "images=(1, 2, 3))", True),
        (kjdt.JdtClass, (tab, {tab.masks}, [tab], True),
         {"seed": tab, "states": {tab.masks}, "straight": [tab], "exhausted": True},
         {}, (tab, {tab.masks}, [tab], False),
         "JdtClass(seed=Tableau('1,2/2'), straight=[Tableau('1,2/2')], exhausted=True)", False),
        (kjdt.URTVerdict, ("refuted", other, 4), {"status": "refuted", "witness": other, "class_size": 4},
         {"witness": None, "class_size": 0}, ("refuted", other, 5),
         "URTVerdict(status='refuted', witness=Tableau('1,2'), class_size=4)", True),
        (kjdt.EquivalenceVerdict, ("equivalent", [(1,), (1, 1)], "lis", 7),
         {"status": "equivalent", "path": [(1,), (1, 1)], "invariant": "lis", "explored": 7},
         {"path": None, "invariant": None, "explored": 0}, ("refuted", None, "lis", 7),
         "EquivalenceVerdict(status='equivalent', path=[(1,), (1, 1)], invariant='lis', "
         "explored=7)", False),
    ]


@pytest.mark.parametrize("row", range(6))
def test_record_construction_equality_hash_repr_and_assignment(row):
    cls, args, kwargs, defaults, unequal, text, frozen = _record_table()[row]
    record = cls(*args)
    assert record == cls(**kwargs) and not record != cls(**kwargs)
    assert record != cls(*unequal) and not record == cls(*unequal)
    assert record != "record" and not record == "record"
    assert copy.copy(record) == record
    assert repr(record) == text
    required = [kwargs[name] for name in kwargs if name not in defaults]
    assert all(getattr(cls(*required), name) == value for name, value in defaults.items())
    first = next(iter(kwargs))
    if frozen:
        assert hash(record) == hash(cls(**kwargs))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(record, first, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(record, first)
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
        setattr(record, first, kwargs[first])
        assert record == cls(**kwargs)


def test_skew_shape_refusals():
    poset = kjdt.type_a(2, 2)
    with pytest.raises(kjdt.PosetError, match="^skew shape needs both shapes on one poset$"):
        kjdt.SkewShape(poset.shape("1"), kjdt.type_a(2, 3).shape("1"))
    with pytest.raises(kjdt.PosetError, match="^inner shape is not contained in outer shape$"):
        kjdt.SkewShape(poset.shape("1"), poset.shape("2"))
