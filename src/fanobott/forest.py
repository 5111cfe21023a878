"""Signed rooted forests and their canonical codes.

The forest of an admissible matrix has one vertex per row: vertex i hangs
below vertex phi(i) with the sign of the leading entry of row i, and rows
with no leading entry are roots.  Three equivalence relations on forests
are decided through canonical codes:

* "rooted"  -- isomorphism of rooted forests, ignoring all edge signs;
* "variety" -- rooted isomorphism combined with flipping, at any set of
  vertices, the signs of all edges to their children simultaneously;
* "diffeo"  -- as "variety", plus flipping each root-adjacent edge on its
  own.

Codes are built bottom up.  A childless vertex contributes the atom "L".
Elsewhere each child contributes the token (code, sign); the token list is
sorted, comparing codes first and then signs with "+" < "-", for both the
given signs and the globally flipped signs, and the smaller list is kept.
Roots in "diffeo" mode drop the child-edge signs entirely.  Equal codes in
a mode characterize equivalence under that mode's group.

All subtree codes come from one iterative pass that visits children before
parents (a reversed breadth-first search from the roots), so any depth
works and labels need not increase toward the roots.  The witness matcher
reuses that pass: it pairs the vertices of two equivalent forests by their
subtree codes and reads each vertex's flip from the pass's choices.  The
same per-vertex rule also codes every matrix of one size at once, in a
forward pass over layers of row choices that merges the prefixes with the
same root codes and pending child tokens into one state, so the work
follows the states of the layers, not the labelled matrices.  Each layer
numbers its states in stream order and keeps one transition column per
row choice.  That one engine gives each code's first stream position
(`classify`) and, by applying the columns layer by layer, the code id of
every stream position (`oracle`), with no forest or code per position.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from fanobott.matrix import (
    FanoBottError,
    FanoBottMatrix,
    PhiSigma,
    Record,
    _require_int,
    _row_choices,
    from_phi_sigma,
    to_phi_sigma,
)

ROOTED = "rooted"
VARIETY = "variety"
DIFFEO = "diffeo"
MODES = (ROOTED, VARIETY, DIFFEO)

LEAF_ATOM = "L"
_FLIP = {"+": "-", "-": "+"}


class LabelOrderError(FanoBottError, ValueError):
    """A vertex label does not precede its parent's label."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} does not precede its parent")


class NotALeafError(FanoBottError, ValueError):
    """The named vertex has children and cannot be cut."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is not a leaf")


class SignedRootedForest(Record):
    """Forest on vertices 1..d.

    parents[i-1] is the parent label of vertex i, with 0 for roots;
    signs[i-1] is "+" or "-" for non-roots and "" for roots.
    """

    parents: tuple[int, ...]
    signs: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.parents)

    def roots(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.size + 1) if self.parents[v - 1] == 0)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "parents": list(self.parents),
            "signs": list(self.signs),
        }


def make_forest(parents: list[int] | tuple[int, ...],
                signs: list[str] | tuple[str, ...]) -> SignedRootedForest:
    """Validate parent/sign arrays and wrap them.

    Every vertex must reach a root by iterating the parent map, and signs
    must be "+"/"-" off the roots and "" on them.
    """
    d = len(parents)
    if len(signs) != d:
        raise ValueError(f"{d} parents but {len(signs)} signs")
    parents = tuple(parents)
    signs = tuple(str(s) for s in signs)
    for v in range(1, d + 1):
        p = parents[v - 1]
        if type(p) is not int:
            raise ValueError(f"parent({v}) = {p!r} is not an integer")
        if not 0 <= p <= d:
            raise ValueError(f"parent({v}) = {p} out of range 0..{d}")
        if p == v:
            raise ValueError(f"vertex {v} is its own parent")
        expected = "" if p == 0 else ("+", "-")
        if p == 0 and signs[v - 1] != "":
            raise ValueError(f"sign({v}) given for a root vertex")
        if p != 0 and signs[v - 1] not in expected:
            raise ValueError(f"sign({v}) = {signs[v - 1]!r} is not '+' or '-'")
    reached = _kids_and_order(parents)[1]
    if len(reached) < d:
        unreached = set(range(1, d + 1)).difference(reached)
        seen = set()
        cur = min(unreached)
        while cur not in seen:
            seen.add(cur)
            cur = parents[cur - 1]
        raise ValueError(f"parent map cycles through vertex {cur}")
    return SignedRootedForest(parents, signs)


def forest_from_json(data: object) -> SignedRootedForest:
    """Parse {"size": d, "parents": [...], "signs": [...]}."""
    if not isinstance(data, dict) or "parents" not in data or "signs" not in data:
        raise ValueError('forest object must carry "parents" and "signs"')
    if not isinstance(data["parents"], list) or not isinstance(data["signs"], list):
        raise ValueError('"parents" and "signs" must be lists')
    if "size" in data and _require_int("size", data["size"]) != len(data["parents"]):
        raise ValueError('"size" does not match the number of parents')
    return make_forest(data["parents"], data["signs"])


def children_map(t: SignedRootedForest) -> dict[int, tuple[int, ...]]:
    """Label -> tuple of child labels in increasing order."""
    kids = _kids_and_order(t.parents)[0]
    return {v: tuple(kids[v]) for v in range(1, t.size + 1)}


def leaves(t: SignedRootedForest) -> tuple[int, ...]:
    """Labels of vertices without children, in increasing order."""
    kids = _kids_and_order(t.parents)[0]
    return tuple(v for v in range(1, t.size + 1) if not kids[v])


def from_matrix(a: FanoBottMatrix) -> SignedRootedForest:
    """Forest with parent(i) = phi(i) where phi(i) <= d, roots elsewhere."""
    return _forest_of(to_phi_sigma(a))


def _forest_of(ps: PhiSigma) -> SignedRootedForest:
    """The forest of parent/sign data that is already known to be valid."""
    d = ps.dim
    parents = tuple(p if p <= d else 0 for p in ps.phi)
    signs = tuple(s if s is not None else "" for s in ps.sigma)
    return SignedRootedForest(parents, signs)


def to_matrix(t: SignedRootedForest) -> FanoBottMatrix:
    """Inverse of :func:`from_matrix`; labels must increase toward the roots.

    Raises:
        LabelOrderError: naming the first vertex whose parent label is
            not larger than its own.
    """
    for v in range(1, t.size + 1):
        p = t.parents[v - 1]
        if p != 0 and p <= v:
            raise LabelOrderError(v)
    return from_phi_sigma(_phi_sigma_of(t))


def _phi_sigma_of(t: SignedRootedForest) -> PhiSigma:
    """Parent/sign data of the forest, unchecked: roots get phi = d+1."""
    d = t.size
    return PhiSigma(tuple(p or d + 1 for p in t.parents),
                    tuple(s or None for s in t.signs))


def _check_perm(perm: Sequence[int], d: int) -> tuple[int, ...]:
    """perm as a tuple if its entries are ints forming a permutation of 1..d.

    Raises:
        ValueError: naming the first entry whose type is not int (bool
            included), or the whole perm if it is not a permutation.
    """
    perm = tuple(_require_int("perm entry", x) for x in perm)
    if sorted(perm) != list(range(1, d + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{d}")
    return perm


def relabel(t: SignedRootedForest, pi: Sequence[int]) -> SignedRootedForest:
    """Apply an arbitrary relabeling pi (vertex i becomes pi[i-1])."""
    d = t.size
    pi = _check_perm(pi, d)
    parents = [0] * d
    signs = [""] * d
    for v in range(1, d + 1):
        p = t.parents[v - 1]
        parents[pi[v - 1] - 1] = pi[p - 1] if p != 0 else 0
        signs[pi[v - 1] - 1] = t.signs[v - 1]
    return SignedRootedForest(tuple(parents), tuple(signs))


def leaf_cut(t: SignedRootedForest, v: int) -> SignedRootedForest:
    """Remove the leaf v; labels above v shift down by one.

    Raises:
        NotALeafError: if v has children.
    """
    if not 1 <= _require_int("v", v) <= t.size or v in t.parents:
        raise NotALeafError(v)
    parents = []
    signs = []
    for u in range(1, t.size + 1):
        if u == v:
            continue
        p = t.parents[u - 1]
        parents.append(p - 1 if p > v else p)
        signs.append(t.signs[u - 1])
    return SignedRootedForest(tuple(parents), tuple(signs))


class CanonicalCode(Record):
    """Total-order code deciding equivalence in one mode."""

    mode: str
    code: str


def _kids_and_order(parents: tuple[int, ...]) -> tuple[list[list[int]], list[int]]:
    """Children lists and the vertices reachable from the roots, parents first.

    kids[v] lists the children of v in increasing order and kids[0] the
    roots.  The order is a breadth-first search from the roots, so reversed
    it visits every child before its parent, whatever the labels; it holds
    all d vertices exactly when the parent map has no cycle.
    """
    kids: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for v, p in enumerate(parents, 1):
        kids[p].append(v)
    order = list(kids[0])
    for v in order:  # the loop also visits the children appended here
        order.extend(kids[v])
    return kids, order


def _vertex_code(tokens: Sequence[tuple[str, str]], mode: str, root: bool
                 ) -> tuple[str, bool]:
    """Code of one vertex from its children's (code, sign) tokens.

    Returns the code and whether the globally flipped token list was the
    one kept.  A childless vertex is the atom "L"; "rooted" sorts the
    child codes; "variety" and non-root "diffeo" vertices keep the smaller
    of the sorted given and flipped token lists; a "diffeo" root drops
    the signs and is written "[...]".
    """
    if mode == DIFFEO and root:
        return "[" + ",".join(sorted([code for code, _ in tokens])) + "]", False
    if not tokens:
        return LEAF_ATOM, False
    if mode == ROOTED:
        return "(" + ",".join(sorted([code for code, _ in tokens])) + ")", False
    given = sorted(tokens)
    other = sorted([(code, _FLIP[s]) for code, s in given])
    flipped = other < given
    kept = other if flipped else given
    return "(" + ",".join([code + s for code, s in kept]) + ")", flipped


def _bottom_up(t: SignedRootedForest, mode: str
               ) -> tuple[list[list[int]], list[str], list[bool]]:
    """Subtree codes of every vertex in one pass, children before parents.

    Returns (kids, codes, flipped) with kids as in :func:`_kids_and_order`,
    codes[v] the code of the subtree at v, and flipped[v] whether the
    globally flipped token list was the one kept.  In "diffeo" mode
    codes[r] is the root code "[...]" of each root r, built from the
    flip-minimized codes of its children.
    """
    parents, signs = t.parents, t.signs
    kids, order = _kids_and_order(parents)
    codes = [LEAF_ATOM] * (len(parents) + 1)
    flipped = [False] * (len(parents) + 1)
    for v in reversed(order):
        codes[v], flipped[v] = _vertex_code(
            [(codes[c], signs[c - 1]) for c in kids[v]], mode, not parents[v - 1])
    return kids, codes, flipped


def _layers(d: int, mode: str, multisets: list[tuple[tuple[str, str], ...]] | None = None
            ) -> Iterator[tuple[list[list[int]], dict[tuple[int, ...], int], list[int]]]:
    """The state engine behind :func:`_first_positions` and :func:`_code_ids`.

    A forward pass over layers replaces building a forest per matrix:
    vertex k chooses at layer k.  Children carry smaller labels than their
    parents, so once vertices 1..k-1 have chosen, the subtree at k is
    complete, and what the rest of the pass can see is the state: the
    sorted (code, sign) tokens of each pending vertex k..d and the sorted
    root codes so far, a root code r being the token (r, "").  Each sorted
    token multiset is interned, injectively, as a small int, so a state is
    the flat tuple (pending_k, ..., pending_d, roots) of multiset ids.
    Vertex k's codes as a non-root and as a root are built once per
    multiset, and filing one for a choice of row k, as a root or as a
    token of the chosen parent, is one lookup in the layer's (multiset,
    code, sign) -> multiset memo and one slice of the state.  After layer
    d every vertex is filed, and distinct roots multisets join to distinct
    forest codes.

    A matrix's stream position is the sum over its rows of choice index
    times row weight, with row 1 fastest as in
    :func:`~fanobott.matrix.enumerate_matrices`, so a prefix of rows 1..k
    sits at base + j * W, with base < W its prefix of rows 1..k-1 and W
    their choice count product.  Each layer's states are numbered,
    visiting choices on the outside and the states in id order on the
    inside: the visits then come in increasing order of their smallest
    positions, so by induction the first visit to a state is its smallest
    position, and ids follow stream-first order.

    Yields (cols, states, first) for layers k = 1..d: cols[j][s] is the id
    that state s of the layer before reaches when row k takes choice j;
    states maps each state to its id, in id order, and first[t] is the
    smallest position of state t, increasing in t.  multisets, if given,
    is an empty list that grows into the intern table: multisets[m] is
    the sorted token tuple of id m.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if multisets is None:
        multisets = []
    multisets.append(())
    interned = {(): 0}
    vertex_codes: dict[int, tuple[str, str]] = {}  # m -> (code, root code) of a vertex
    states: dict[tuple[int, ...], int] = {(0,) * (d + 1): 0}
    first = [0]
    weight = 1
    for k, choices in enumerate(_row_choices(d), 1):
        if mode == ROOTED:  # rooted codes ignore the signs, so the states drop them
            choices = [(q, "") for q, _ in choices]
        for state in states:
            if state[0] not in vertex_codes:
                tokens = multisets[state[0]]
                vertex_codes[state[0]] = (_vertex_code(tokens, mode, False)[0],
                                          _vertex_code(tokens, mode, True)[0])
        codes, root_codes = zip(*[vertex_codes[state[0]] for state in states])
        # (m, code, sign) -> m plus that token; a layer files vertex k's codes only
        filed: dict[tuple[int, str, str], int] = {}
        layer: dict[tuple[int, ...], int] = {}
        reached: list[int] = []
        cols = []
        for j, (q, s) in enumerate(choices):
            offset = j * weight
            if q > d:  # the roots multiset is the state's last entry
                i, s, filed_codes = d - k + 1, "", root_codes
            else:
                i, filed_codes = q - k, codes
            col = []
            for state, code, base in zip(states, filed_codes, first):
                key = (state[i], code, s)
                m = filed.get(key)
                if m is None:
                    tokens = tuple(sorted((*multisets[state[i]], (code, s))))
                    m = filed[key] = interned.setdefault(tokens, len(multisets))
                    if m == len(multisets):
                        multisets.append(tokens)
                state = state[1:i] + (m,) + state[i + 1:]
                t = layer.get(state)
                if t is None:
                    t = layer[state] = len(reached)
                    reached.append(base + offset)
                col.append(t)
            cols.append(col)
        states = layer
        first = reached
        weight *= len(choices)
        yield cols, states, first


def _first_positions(d: int, mode: str) -> dict[str, int]:
    """Each forest code of the d x d matrices with its smallest stream position.

    Each final state of :func:`_layers` is one roots multiset, and so one
    forest code, and the pass gives each its smallest position.
    """
    multisets: list[tuple[tuple[str, str], ...]] = []
    for _, states, first in _layers(d, mode, multisets):
        pass  # only the final layer is read
    return {"|".join([r for r, _ in multisets[roots]]): position
            for (roots,), position in zip(states, first)}


def _code_ids(d: int, mode: str) -> list[int]:
    """The forest code id of every stream position of the d x d matrices.

    Equal ids mean equal codes.  The prefixes of rows 1..k fill positions
    base + j * W in blocks of one choice j, so each layer's ids are its
    columns applied in turn to the previous layer's ids: about 1.5 times
    (2d-1)!! list lookups in all, and no forest or code per position.
    """
    ids = [0]
    for cols, _, _ in _layers(d, mode):
        ids = [t for col in cols for t in map(col.__getitem__, ids)]
    return ids


def canonical_code(t: SignedRootedForest, mode: str) -> CanonicalCode:
    """Canonical code of the forest in the given mode.

    The forest code is the sorted multiset of root codes.  Codes are equal
    exactly when the forests are related by a rooted-forest isomorphism
    composed with the sign flips the mode allows.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    kids, codes, _ = _bottom_up(t, mode)
    return CanonicalCode(mode, _forest_code(kids, codes))


def _forest_code(kids: list[list[int]], codes: list[str]) -> str:
    """The sorted root codes of a pass from :func:`_bottom_up`, joined."""
    return "|".join(sorted([codes[r] for r in kids[0]]))


def equivalent(t1: SignedRootedForest, t2: SignedRootedForest, mode: str) -> bool:
    """Whether the two forests are equivalent under the mode's group."""
    return canonical_code(t1, mode) == canonical_code(t2, mode)


def _match_forests(t1: SignedRootedForest, t2: SignedRootedForest
                   ) -> tuple[dict[int, int], list[int], list[tuple[int, int]]] | None:
    """Match two forests vertex by vertex; None if their diffeo codes differ.

    One diffeo pass per forest gives both the compared codes and the
    matching.  Returns (mapping, flips, edge_flips): a label bijection
    t1 -> t2, the t2-labels whose child-edge signs must flip, and the
    (root, child) t2-label pairs whose root edges must flip, so that
    relabeling t1 by the mapping and applying the flips reproduces t2
    exactly.  Roots pair by root code and their children by subtree code
    alone; deeper children pair by (code, sign), with t1's signs flipped
    where exactly one of the two parents kept its flipped token list.
    """
    kids1, codes1, flipped1 = _bottom_up(t1, DIFFEO)
    kids2, codes2, flipped2 = _bottom_up(t2, DIFFEO)
    if _forest_code(kids1, codes1) != _forest_code(kids2, codes2):
        return None
    signs1, signs2 = t1.signs, t2.signs
    mapping: dict[int, int] = {}
    flips: list[int] = []
    edge_flips: list[tuple[int, int]] = []
    stack = [(0, 0)]
    while stack:
        u, u2 = stack.pop()
        if not u or not t1.parents[u - 1]:
            items1 = [(codes1[c], c) for c in kids1[u]]
            items2 = [(codes2[c], c) for c in kids2[u2]]
        else:
            eps = flipped1[u] != flipped2[u2]
            if eps:
                flips.append(u2)
            items1 = [((codes1[c], _FLIP[signs1[c - 1]] if eps else signs1[c - 1]), c)
                      for c in kids1[u]]
            items2 = [((codes2[c], signs2[c - 1]), c) for c in kids2[u2]]
        # sorted by (key, label), equal keys pair up in increasing label order
        items1.sort()
        items2.sort()
        if [key for key, _ in items1] != [key for key, _ in items2]:
            raise FanoBottError("internal: forest matching diverged")
        for (_, c), (_, c2) in zip(items1, items2):
            mapping[c] = c2
            if u and not t1.parents[u - 1] and signs1[c - 1] != signs2[c2 - 1]:
                edge_flips.append((u2, c2))
            stack.append((c, c2))
    return mapping, flips, edge_flips


def render_dot(t: SignedRootedForest) -> str:
    """Deterministic DOT digraph with signed edges and doubled root circles."""
    lines = ["digraph forest {", "  rankdir=BT;"]
    root_set = set(t.roots())
    for v in range(1, t.size + 1):
        if v in root_set:
            lines.append(f"  v{v} [shape=doublecircle];")
        else:
            lines.append(f"  v{v};")
    for v in range(1, t.size + 1):
        p = t.parents[v - 1]
        if p != 0:
            lines.append(f'  v{v} -> v{p} [label="{t.signs[v - 1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
