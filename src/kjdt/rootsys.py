"""Root systems and Weyl groups for independent verification of the posets.

Roots are integer coefficient vectors over the simple roots; the pairing
uses symmetrized Cartan data, so everything is exact integer arithmetic.
Weyl group elements act as signed permutations of the positive roots,
which keeps equality, length, and inversion sets uniform across types.

The box posets built in :mod:`kjdt.poset` are validated here from
scratch: the set of roots on which the marked simple root has
coefficient one is ordered by root-difference positivity and matched
against the grid poset by a backtracking order-isomorphism search.
"""
from __future__ import annotations

from functools import lru_cache
from operator import mul

from .errors import PosetError, _FrozenRecord
from .poset import MinusculePoset, PosetFamily, Shape, bits, build_poset, enumerate_shapes, _check_type

Coeffs = tuple[int, ...]


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _e_bonds(n: int) -> list[tuple[int, int]]:
    """Node 2 hangs off node 4; the others form the path 1, 3, 4, ..., n."""
    return [(0, 2), (1, 3), *_path(n)[2:]]


# type: (least rank, whether it is the only rank, the simple bonds at rank n
# between 0-based nodes, the half norms of the first n - 1 simple roots and of the last)
_DYNKIN = {
    "A": (1, False, _path, (1, 1)),
    "B": (2, False, _path, (2, 1)),  # last simple root short
    "C": (2, False, _path, (1, 2)),  # last simple root long
    "D": (3, False, lambda n: _path(n - 1) + [(n - 3, n - 1)], (1, 1)),
    "E6": (6, True, _e_bonds, (1, 1)),
    "E7": (7, True, _e_bonds, (1, 1)),
}


def _type_label(kind: str, rank: int) -> str:
    """``A3``, ``D5``, ``E6``: a type named with its rank is not given it twice."""
    return kind if kind[-1:].isdigit() else f"{kind}{rank}"


def _cartan(kind: str, n: int) -> tuple[list[list[int]], list[int]]:
    """Cartan data ``M[i][j] = <alpha_i, alpha_j-coroot>`` and half norms.

    A bad type or rank raises ``PosetError``.  A bond from a root to one of
    half its norm is -2 that way (the B and C double bond); every other
    bond is -1 both ways.
    """
    if type(kind) is not str or kind not in _DYNKIN:
        raise PosetError(f"unknown root system type {kind!r}")
    least, exact, bonds, (norm, last_norm) = _DYNKIN[kind]
    if type(n) is not int:
        raise PosetError(f"a rank is an int, not {n!r}")
    if exact and n != least:
        raise PosetError(f"type {kind} has rank {least}")
    if n < least:
        raise PosetError(f"type {kind} needs rank >= {least}")
    d = [norm] * (n - 1) + [last_norm]
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds(n):
        m[i][j] = -max(d[i] // d[j], 1)
        m[j][i] = -max(d[j] // d[i], 1)
    return m, d


class RootSystem:
    """Finite root system with positive roots as simple-root coefficient vectors."""

    def __init__(self, kind: str, rank: int):
        self.kind = kind
        self.rank = rank
        self.cartan, self.half_norm = _cartan(kind, rank)
        # the symmetrized form (alpha_i, alpha_j), scaled to integers
        self.form: list[list[int]] = [
            [d * c for d, c in zip(self.half_norm, row)] for row in self.cartan
        ]
        self.simple_roots: list[Coeffs] = [
            tuple(int(j == i) for j in range(rank)) for i in range(rank)
        ]
        self.positive_roots: list[Coeffs] = self._close()
        self.index: dict[Coeffs, int] = {
            r: i for i, r in enumerate(self.positive_roots)
        }
        self.nroots = len(self.positive_roots)
        self._reflection_table: dict[Coeffs, WeylElement] | None = None

    def __repr__(self):
        return f"RootSystem({_type_label(self.kind, self.rank)}, {self.nroots} positive roots)"

    def _close(self) -> list[Coeffs]:
        """The simple roots closed under the simple reflections that raise height."""
        known = set(self.simple_roots)
        queue = list(self.simple_roots)
        for beta in queue:
            for i, alpha in enumerate(self.simple_roots):
                k = sum(c * self.cartan[j][i] for j, c in enumerate(beta) if c)
                if k < 0:  # s_i(beta) = beta - k alpha_i
                    up = tuple(b - k * a for b, a in zip(beta, alpha))
                    if up not in known:
                        known.add(up)
                        queue.append(up)
        return sorted(known, key=lambda r: (sum(r), r))

    # -- forms ------------------------------------------------------------

    def bilinear(self, a: Coeffs, b: Coeffs) -> int:
        """Symmetrized invariant form (scaled to integers)."""
        return sum(x * sum(map(mul, row, b)) for x, row in zip(a, self.form) if x)

    def pair_coroot(self, beta: Coeffs, alpha: Coeffs) -> int:
        """<beta, alpha-coroot> = 2 (beta, alpha) / (alpha, alpha)."""
        num = 2 * self.bilinear(beta, alpha)
        den = self.bilinear(alpha, alpha)
        q, r = divmod(num, den)
        if r:
            raise PosetError("non-integral coroot pairing")
        return q

    def reflect(self, beta: Coeffs, alpha: Coeffs) -> Coeffs:
        k = self.pair_coroot(beta, alpha)
        return tuple(b - k * a for b, a in zip(beta, alpha))

    def signed_index(self, root: Coeffs) -> int:
        """Index of a root among positive roots; negative means -root."""
        if root in self.index:
            return self.index[root] + 1
        neg = tuple(-x for x in root)
        if neg in self.index:
            return -(self.index[neg] + 1)
        raise PosetError(f"not a root: {root}")

    def dual(self) -> "RootSystem":
        """The dual root system (transposed Cartan matrix)."""
        dual_kind = {"B": "C", "C": "B"}.get(self.kind, self.kind)
        return root_system(dual_kind, self.rank)

    # -- Weyl elements ------------------------------------------------------

    def identity(self) -> "WeylElement":
        return WeylElement(self, tuple(range(1, self.nroots + 1)))

    def _reflections_by_root(self) -> dict[Coeffs, "WeylElement"]:
        """Every reflection, keyed by its positive root; built on first use.

        Each alpha reads one row ``r`` of the form, ``(alpha_j, alpha) = r[j]``,
        and its norm once.  ``2 (beta, alpha) / (alpha, alpha)`` is linear in
        beta, so it is an integer for every positive beta exactly when
        ``2 r[j]`` is a multiple of the norm for every j.  A simple
        reflection sends beta to ``beta - k alpha``.  Any other alpha has a
        first simple root alpha_i with ``(alpha, alpha_i) > 0``, so
        ``s_i alpha`` is a lower root, already in the table, and
        ``s_alpha = s_i s_(s_i alpha) s_i``: two products a root (Bjorner and
        Brenti, *Combinatorics of Coxeter Groups*, 2005, section 1.4).
        """
        if self._reflection_table is None:
            table = {}
            simple = set(self.simple_roots)
            for alpha in self.positive_roots:  # in height order
                r = [sum(map(mul, row, alpha)) for row in self.form]
                norm = sum(map(mul, alpha, r))
                if any(2 * x % norm for x in r):
                    raise PosetError("non-integral coroot pairing")
                if alpha in simple:
                    images = []
                    for j, beta in enumerate(self.positive_roots, 1):
                        k = 2 * sum(map(mul, beta, r)) // norm
                        images.append(  # a root orthogonal to alpha is fixed
                            self.signed_index(tuple(b - k * a for b, a in zip(beta, alpha)))
                            if k else j
                        )
                    table[alpha] = WeylElement(self, tuple(images))
                else:
                    i = next(j for j, x in enumerate(r) if x > 0)
                    k = 2 * r[i] // self.form[i][i]
                    lower = tuple(c - k * (j == i) for j, c in enumerate(alpha))
                    s_i = table[self.simple_roots[i]]
                    table[alpha] = s_i * table[lower] * s_i
            self._reflection_table = table
        return self._reflection_table

    def reflection(self, alpha: Coeffs) -> "WeylElement":
        """The reflection in +-alpha; raises PosetError if alpha is not a root."""
        table = self._reflections_by_root()
        w = table.get(alpha) or table.get(tuple(-x for x in alpha))
        if w is None:
            raise PosetError(f"not a root: {alpha}")
        return w

    def simple_reflection(self, i: int) -> "WeylElement":
        """The reflection in the simple root alpha_i, for 0 <= i < rank."""
        if not 0 <= i < self.rank:
            raise PosetError(f"no simple root {i} in rank {self.rank}")
        return self._reflections_by_root()[self.simple_roots[i]]

    def reflections(self) -> dict[tuple, Coeffs]:
        """Map from each reflection's images to its positive root."""
        return {w.images: alpha for alpha, w in self._reflections_by_root().items()}

    def longest_element(self, avoid: int | None = None) -> "WeylElement":
        """Longest element of W, or of the parabolic W_P avoiding one node."""
        w = self.identity()
        moved = True
        while moved:
            moved = False
            for i, alpha in enumerate(self.simple_roots):
                if i != avoid and w.act(alpha)[0] > 0:
                    w = w * self.simple_reflection(i)
                    moved = True
        return w


def root_system(kind: str, rank: int) -> RootSystem:
    """The shared root system of a type and rank; ``_cartan`` checks both before the cache is read."""
    _cartan(kind, rank)
    return _root_system(kind, rank)


# Unbounded on purpose: a WeylElement is a frozen record whose ``system``
# field compares root systems by identity, so evicting one would make equal
# elements compare unequal; it grows only with the (type, rank) pairs built.
@lru_cache(maxsize=None)
def _root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)


class WeylElement(_FrozenRecord):
    """Weyl group element as a signed permutation of the positive roots."""

    __slots__ = ("system", "images")

    def __init__(self, system: RootSystem, images: tuple[int, ...]):
        super().__init__(system, images)  # images[i] = +-(j+1): root_i -> +-root_j

    def act(self, root: Coeffs) -> tuple[int, int]:
        """Image of +-root as (sign, positive root index)."""
        si = self.system.signed_index(root)
        im = self.images[abs(si) - 1]
        sign = 1 if (si > 0) == (im > 0) else -1
        return sign, abs(im) - 1

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """(self * other) acts by other first, then self."""
        _check_type(WeylElement, other=other)
        if other.system is not self.system:
            raise PosetError(
                f"cannot multiply Weyl elements of {self.system!r} and {other.system!r}"
            )
        images = self.images
        return WeylElement(
            self.system, tuple([images[j - 1] if j > 0 else -images[-j - 1] for j in other.images])
        )

    def inverse(self) -> "WeylElement":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[abs(j) - 1] = (i + 1) if j > 0 else -(i + 1)
        return WeylElement(self.system, tuple(out))

    def length(self) -> int:
        return sum(1 for j in self.images if j < 0)

    def inversion_set(self) -> set[int]:
        """Positive-root indices sent to negative roots."""
        return {i for i, j in enumerate(self.images) if j < 0}

    def is_identity(self) -> bool:
        return all(j == i + 1 for i, j in enumerate(self.images))


# -- the marked-node poset ----------------------------------------------------

def is_cominuscule(system: RootSystem, node: int) -> bool:
    return all(abs(r[node]) <= 1 for r in system.positive_roots)


def is_minuscule(system: RootSystem, node: int) -> bool:
    return is_cominuscule(system.dual(), node)


def cominuscule_realization(system: RootSystem, node: int) -> tuple[RootSystem, int]:
    """Pass to the dual root system when the node is minuscule only."""
    if is_cominuscule(system, node):
        return system, node
    if is_minuscule(system, node):
        return system.dual(), node
    raise PosetError(
        f"node {node + 1} of {_type_label(system.kind, system.rank)} is neither "
        "cominuscule nor minuscule"
    )


def lambda_from_root_data(system: RootSystem, node: int) -> list[Coeffs]:
    """Roots with coefficient one on the marked node, in root order."""
    system, node = cominuscule_realization(system, node)
    return [r for r in system.positive_roots if r[node] == 1]


def root_order_leq(a: Coeffs, b: Coeffs) -> bool:
    return all(x <= y for x, y in zip(a, b))


def grid_family_for(kind: str, rank: int, node: int) -> PosetFamily:
    """The Table-row family matching a marked Dynkin node (1-based node)."""
    if kind == "A":
        return PosetFamily("a", (node, rank + 1 - node))
    if kind in {"B", "C"}:
        if node == 1:
            return PosetFamily("qodd", (rank,))
        if node == rank:
            return PosetFamily("lg", (rank,))
    if kind == "D":
        if node == 1:
            return PosetFamily("qeven", (rank - 1,))
        if node in {rank - 1, rank}:
            return PosetFamily("og", (rank,))
    if kind == "E6" and node in {1, 6}:
        return PosetFamily("e6")
    if kind == "E7" and node == 7:
        return PosetFamily("e7")
    raise PosetError(
        f"no (co)minuscule grid family for {_type_label(kind, rank)} node {node}"
    )


def verify_poset_embedding(
    system: RootSystem, node: int, poset: MinusculePoset
) -> dict:
    """Search for an order isomorphism between the root poset and the grid.

    Returns a report with ``pass`` and either the isomorphism (as a list
    of root-to-box pairs) or a witness explaining the failure.
    """
    _check_type(RootSystem, system=system)
    _check_type(MinusculePoset, poset=poset)
    roots = lambda_from_root_data(system, node)
    report: dict = {"check": "poset_embedding", "pass": False}
    if len(roots) != poset.n:
        report["witness"] = f"size mismatch: {len(roots)} roots vs {poset.n} boxes"
        return report
    order = [[root_order_leq(a, b) for b in roots] for a in roots]
    base = min(sum(r) for r in roots)
    heights = [sum(r) - base + 1 for r in roots]
    if sorted(heights) != sorted(poset.heights):
        report["witness"] = "height multisets differ"
        return report
    boxes_at: dict[int, list[int]] = {}
    for bi, h in enumerate(poset.heights):
        boxes_at.setdefault(h, []).append(bi)
    assign: list[int] = []  # assign[ri] is root ri's box; roots come in height order

    def extend() -> bool:
        ri = len(assign)
        if ri == len(roots):
            return True
        for bi in boxes_at[heights[ri]]:
            if bi not in assign and all(
                order[rj][ri] == poset.leq(bj, bi) and order[ri][rj] == poset.leq(bi, bj)
                for rj, bj in enumerate(assign)
            ):
                assign.append(bi)
                if extend():
                    return True
                assign.pop()
        return False

    if extend():
        report["pass"] = True
        report["isomorphism"] = [
            [list(roots[ri]), list(poset.boxes[bi])] for ri, bi in enumerate(assign)
        ]
        return report
    report["witness"] = "no order isomorphism found"
    return report


class MarkedRootData:
    """Root system with a marked cominuscule node and its grid poset."""

    def __init__(self, kind: str, rank: int, node: int):
        base = root_system(kind, rank)
        if type(node) is not int:
            raise PosetError(f"a node is an int, not {node!r}")
        if not 1 <= node <= rank:
            raise PosetError(f"node {node} is outside 1..{rank}")
        self.system, self.node = cominuscule_realization(base, node - 1)
        self.poset = build_poset(grid_family_for(kind, rank, node))
        self.embedding = verify_poset_embedding(self.system, self.node, self.poset)
        if not self.embedding["pass"]:
            raise PosetError(f"poset embedding failed: {self.embedding.get('witness')}")
        self.box_to_root: dict[int, Coeffs] = {}
        for root, box in self.embedding["isomorphism"]:
            self.box_to_root[self.poset.index[tuple(box)]] = tuple(root)
        self.w0 = self.system.longest_element()
        self.wx = self.system.longest_element(avoid=self.node)
        # the shape checks read each shape's Weyl element from here; shapes
        # come by size, so a shape's smaller shape is in the table before it
        self.shapes = enumerate_shapes(self.poset)
        self.weyl: dict[int, WeylElement] = {}
        for shape in self.shapes:
            self.weyl[shape.mask] = self.weyl_of_shape(shape)

    def weyl_of_shape(self, shape: Shape) -> WeylElement:
        """The product of box reflections along row-major order, one product a shape.

        Row-major index order is a linear extension, so the shape less its
        last box is a shape, whose element is already in ``self.weyl``.
        """
        if not shape.mask:
            return self.system.identity()
        last = shape.mask.bit_length() - 1
        return self.weyl[shape.mask ^ 1 << last] * self.system.reflection(self.box_to_root[last])

    def shape_root_indices(self, shape: Shape) -> set[int]:
        return {
            self.system.index[self.box_to_root[i]] for i in bits(shape.mask)
        }

    def in_wp(self, w: WeylElement) -> bool:
        """Minimal coset representative test: w sends other simples positive."""
        return all(
            w.act(alpha)[0] > 0
            for i, alpha in enumerate(self.system.simple_roots)
            if i != self.node
        )


# -- the verification suite ----------------------------------------------------

def check_inversion_sets(data: MarkedRootData) -> dict:
    """For every straight shape: w is a minimal representative and I(w) = shape."""
    failures = []
    for shape in data.shapes:
        w = data.weyl[shape.mask]
        ok = data.in_wp(w) and w.inversion_set() == data.shape_root_indices(shape)
        ok = ok and w.length() == shape.size
        if not ok:
            failures.append(shape.literal())
    return {
        "check": "inversion_sets",
        "shapes": len(data.shapes),
        "pass": not failures,
        "failures": failures,
    }


def check_bruhat_containment(data: MarkedRootData) -> dict:
    """Covering Bruhat order matches containment of shapes."""
    refl, weyl = data.system.reflections(), data.weyl
    by_size: dict[int, list[Shape]] = {}
    for shape in data.shapes:
        by_size.setdefault(shape.size, []).append(shape)
    failures = []
    for mu in data.shapes:
        wmu_inv = weyl[mu.mask].inverse()
        for lam in by_size.get(mu.size + 1, ()):
            cover = (wmu_inv * weyl[lam.mask]).images in refl
            if cover != (mu.mask | lam.mask == lam.mask):
                failures.append((mu.literal(), lam.literal()))
    return {"check": "bruhat", "pass": not failures, "failures": failures}


def check_poincare_duality(data: MarkedRootData) -> dict:
    """w of the dual shape equals w0 * w * wX."""
    failures = []
    for lam in data.shapes:
        lhs = data.weyl[lam.dual().mask]
        rhs = data.w0 * data.weyl[lam.mask] * data.wx
        if lhs != rhs:
            failures.append(lam.literal())
    return {"check": "poincare", "pass": not failures, "failures": failures}


def check_incomparable_orthogonal(data: MarkedRootData) -> dict:
    """Incomparable boxes carry orthogonal roots."""
    poset, system = data.poset, data.system
    failures = []
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            if not poset.comparable(i, j):
                if system.bilinear(data.box_to_root[i], data.box_to_root[j]) != 0:
                    failures.append((poset.boxes[i], poset.boxes[j]))
    return {"check": "orthogonality", "pass": not failures, "failures": failures}


def run_suite(kind: str, rank: int, node: int) -> dict:
    """The exhaustive per-(type, node) report used by tests and the CLI."""
    data = MarkedRootData(kind, rank, node)
    checks = [
        data.embedding,
        check_inversion_sets(data),
        check_poincare_duality(data),
        check_incomparable_orthogonal(data),
        check_bruhat_containment(data),
    ]
    return {
        "type": _type_label(kind, rank),
        "node": node,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
