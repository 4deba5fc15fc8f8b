"""Scenario trees: a finite filtered probability space with adapted
d-dimensional prices.

The measure lives in the transition probabilities; leaf weights are
derived path products. Probabilities must be strictly positive, so one
all-positive representative of the measure's equivalence class is fixed
and no "almost surely" qualifiers are needed anywhere downstream.
"""

from __future__ import annotations

import json
from collections import abc
from math import gcd
from operator import mul, sub
from typing import Iterable, Mapping, Optional

from .errors import InputError, Record
from .linalg import span_basis
from .rationals import (
    ONE,
    Q,
    Rational,
    Vector,
    ZERO,
    format_rational,
    int_row,
    parse_rational,
    rational_row,
)


class Node(Record):
    __slots__ = ("id", "parent", "prob", "price")

    id: int
    parent: Optional[int]  # None at the root
    prob: Rational  # transition probability from the parent; 1 at the root
    price: Vector


class Violation(Record):
    __slots__ = ("node", "rule", "detail")

    node: Optional[int]
    rule: str
    detail: str

    def __str__(self) -> str:
        where = f"node {self.node}" if self.node is not None else "tree"
        return f"{where}: {self.rule}: {self.detail}"


def _check_node(nd) -> None:
    # before any sort or hash: ids are ints but not bools, and
    # probabilities and prices are exact
    if not isinstance(nd, Node):
        raise InputError(f"tree nodes must be Node records, got {nd!r}")
    _check_int(nd.id, "node id")
    if nd.parent is not None:
        _check_int(nd.parent, f"node {nd.id}: parent")
    if not isinstance(nd.prob, Rational):
        raise InputError(f"node {nd.id}: probability must be a Rational, got {nd.prob!r}")
    if type(nd.price) is not tuple or not all(isinstance(v, Rational) for v in nd.price):
        raise InputError(f"node {nd.id}: price must be a tuple of Rationals, got {nd.price!r}")


def _check_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")


class ScenarioTree(Record):
    """Immutable rooted tree: a Record with the fields ``d``, ``horizon``
    and ``nodes`` (sorted by id). Construction performs only the
    structural checks without which no operation makes sense (Node
    records with integer ids and exact values, integer counts, unique
    ids, one root, parents resolve, no cycles); the semantic invariants
    are the business of validate().

    ``order`` holds the nodes breadth-first from the root, each after its
    parent: a top-down pass over the tree is one loop over it, a
    bottom-up pass one loop over its reverse.

    Data derived from the nodes alone is computed once per tree, on
    first use, and kept in containers the constructor makes: the integer
    form of a valid tree (``_integer_form``), each node's
    ConditionalSupport (``conditional_support``, one atom per distinct
    increment into its children), and a passing ``validate``. No attribute
    can be assigned or deleted, so none of it goes stale; copy and
    pickle rebuild the tree with them empty. Nothing a route computes
    from that data (an LP outcome, a certificate, a verdict) is kept."""

    __slots__ = ("d", "horizon", "nodes", "root", "order", "_by_id", "_children",
                 "_depth", "_integer", "_supports", "_passed")
    _fields = ("d", "horizon", "nodes")

    def __init__(self, d: int, horizon: int, nodes: Iterable[Node]):
        if not isinstance(nodes, abc.Iterable):
            raise InputError(f"tree nodes must be an iterable of Node records, got {nodes!r}")
        nodes = tuple(nodes)
        _check_int(d, "asset count")
        _check_int(horizon, "horizon")
        for nd in nodes:
            _check_node(nd)
        nodes = tuple(sorted(nodes, key=lambda nd: nd.id))
        if d < 1:
            raise InputError(f"asset count must be >= 1, got {d}")
        if horizon < 0:
            raise InputError(f"horizon must be >= 0, got {horizon}")
        if not nodes:
            raise InputError("a tree needs at least a root node")

        by_id: dict[int, Node] = {}
        for nd in nodes:
            if nd.id in by_id:
                raise InputError(f"duplicate node id {nd.id}")
            by_id[nd.id] = nd

        roots = [nd for nd in nodes if nd.parent is None]
        if len(roots) != 1:
            raise InputError(f"expected exactly one root, found {len(roots)}")
        root = roots[0].id

        children: dict[int, list[int]] = {nd.id: [] for nd in nodes}
        for nd in nodes:  # by id, so each child list comes out sorted
            if nd.parent is not None:
                if nd.parent not in by_id:
                    raise InputError(f"node {nd.id} references missing parent {nd.parent}")
                children[nd.parent].append(nd.id)
        kids = {k: tuple(v) for k, v in children.items()}

        # breadth-first from the root: each node comes after its parent
        order = [roots[0]]
        depth: dict[int, int] = {root: 0}
        for nd in order:
            for c in kids[nd.id]:
                depth[c] = depth[nd.id] + 1
                order.append(by_id[c])
        if len(order) != len(nodes):
            orphans = sorted(set(by_id) - set(depth))
            raise InputError(f"nodes unreachable from the root (cycle?): {orphans}")
        # the per-tree caches: integer form, supports, passed checks
        super().__init__(d, horizon, nodes, root, tuple(order), by_id, kids, depth, [], {}, set())

    # --- structure queries ----------------------------------------------

    def node(self, node_id: int) -> Node:
        """The node with this id; InputError on a bad or unknown id."""
        if type(node_id) is not int:
            _check_int(node_id, "node id")
        try:
            return self._by_id[node_id]
        except KeyError:
            raise InputError(f"no node with id {node_id}") from None

    def children(self, node_id: int) -> tuple[int, ...]:
        self.node(node_id)
        return self._children[node_id]

    def is_leaf(self, node_id: int) -> bool:
        return not self.children(node_id)

    def depth(self, node_id: int) -> int:
        self.node(node_id)
        return self._depth[node_id]

    def leaves(self) -> tuple[int, ...]:
        return tuple(nd.id for nd in self.nodes if not self._children[nd.id])

    def non_leaves(self) -> tuple[int, ...]:
        return tuple(nd.id for nd in self.nodes if self._children[nd.id])


def validate(tree: ScenarioTree) -> list[Violation]:
    """Check the semantic invariants; violations are data, not failures.
    A pass is recorded on the tree, so a later ``ensure_valid`` does not
    validate it again. Anything but a ScenarioTree raises InputError."""
    if not isinstance(tree, ScenarioTree):
        raise InputError(f"expected a ScenarioTree, got {type(tree).__name__}")
    out: list[Violation] = []

    def flag(node: int, rule: str, detail: str, *values: Rational) -> None:
        # each {} in detail shows one value; one past the digit limit is
        # an InputError that names the node and the rule
        try:
            shown = [format_rational(v) for v in values]
        except InputError as exc:
            raise InputError(f"node {node} {rule}: {exc}") from exc
        out.append(Violation(node, rule, detail.format(*shown)))

    root = tree.node(tree.root)
    if root.prob != 1:
        flag(root.id, "root_prob", "root probability {} != 1", root.prob)
    for nd in tree.nodes:
        if len(nd.price) != tree.d:
            flag(nd.id, "price_dim",
                 f"price has {len(nd.price)} components, expected {tree.d}")
        if nd.parent is not None and nd.prob <= 0:
            flag(nd.id, "prob_positive", "non-positive transition probability {}",
                 nd.prob)
    for nid in tree.non_leaves():
        total = sum((tree.node(c).prob for c in tree.children(nid)), ZERO)
        if total != 1:
            flag(nid, "prob_sum", "child probabilities sum to {} != 1", total)
    for leaf in tree.leaves():
        dep = tree.depth(leaf)
        if dep != tree.horizon:
            flag(leaf, "leaf_depth", f"leaf at depth {dep}, horizon is {tree.horizon}")
    if not out:
        tree._passed.add("validate")
    return out


def ensure_valid(tree: ScenarioTree) -> ScenarioTree:
    """The tree, or InputError listing its violations, or naming the
    type of anything but a ScenarioTree. A tree that ``validate`` has
    passed is not validated again; a failure is not recorded, and
    raises on every call."""
    if isinstance(tree, ScenarioTree) and "validate" in tree._passed:
        return tree
    violations = validate(tree)
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise InputError(f"invalid tree: {listing}")
    return tree


def _integer_form(tree: ScenarioTree) -> tuple[int, dict[int, tuple[int, ...]], dict[int, int]]:
    """``(den, increment, atom)`` for a valid tree, derived from its
    prices on the first call and kept on it: ``den`` is the lcm of the
    denominators of all prices, ``increment[c]`` the numerators over
    ``den`` of the increment on the edge into non-root node ``c``, and
    ``atom[c]`` the index of that increment among the distinct ones
    into ``c``'s siblings in order of first appearance, which is the
    index of ``c``'s atom in its parent's ConditionalSupport. The
    routes build their per-tree loops from it and must not mutate the
    mappings, which are the tree's own; InputError on an invalid
    tree."""
    ensure_valid(tree)
    if not tree._integer:
        d = tree.d
        nums, den = int_row([v for nd in tree.order for v in nd.price])
        price = {nd.id: nums[i * d:(i + 1) * d] for i, nd in enumerate(tree.order)}
        increment: dict[int, tuple[int, ...]] = {}
        atom: dict[int, int] = {}
        for nid, kids in tree._children.items():
            seen: dict[tuple[int, ...], int] = {}
            for c in kids:
                x = increment[c] = tuple(map(sub, price[c], price[nid]))
                atom[c] = seen.setdefault(x, len(seen))
        tree._integer.append((den, increment, atom))
    return tree._integer[0]


# --- conditional one-step structure ---------------------------------------


class ConditionalSupport(Record):
    """Atoms (x_i, q_i) of the one-step conditional increment
    distribution at a non-leaf node, in integer form: distinct increment
    values with their summed transition probabilities. The constructor
    takes the node, an ``int`` that is not a ``bool``; ``int_values``,
    the values as (rows, den), row i the numerators of x_i, a non-empty
    tuple of int tuples of one length over an int den > 0; and
    ``int_probs``, the weights as (numerators, den), one int > 0 per row
    over an int den > 0. Anything else raises InputError. It puts both
    pairs in lowest terms, so supports of the same numbers compare,
    hash, print and pickle alike, and derives ``int_basis``, each row of
    the reduced row-echelon basis of the values' span as (numerators,
    pivot entry): the integer echelon rows that ``span_basis`` reduces
    ``int_values`` to. Equality, hashing and pickling read the node and
    the two pairs; copy and pickle rebuild the basis from them."""

    __slots__ = ("node", "int_values", "int_probs", "int_basis")
    _fields = ("node", "int_values", "int_probs")

    node: int
    int_values: tuple[tuple[tuple[int, ...], ...], int]
    int_probs: tuple[tuple[int, ...], int]
    int_basis: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, node, int_values, int_probs) -> None:
        _check_int(node, "support node")
        rows, den = _over_den(node, "values", int_values)
        if not (type(rows) is tuple and rows and all(
                type(x) is tuple and len(x) == len(rows[0]) and all(type(v) is int for v in x)
                for x in rows)):
            raise InputError(f"node {node}: support values must be a non-empty tuple of int "
                             f"tuples of one length, got {rows!r}")
        probs, prob_den = _over_den(node, "weights", int_probs)
        if not (type(probs) is tuple and len(probs) == len(rows)
                and all(type(q) is int and q > 0 for q in probs)):
            raise InputError(f"node {node}: support weights must be one int > 0 per value, "
                             f"got {probs!r}")
        g = gcd(den, *[v for x in rows for v in x])
        if g > 1:
            rows, den = tuple([tuple([v // g for v in x]) for x in rows]), den // g
        g = gcd(prob_den, *probs)
        if g > 1:
            probs, prob_den = tuple([q // g for q in probs]), prob_den // g
        super().__init__(node, (rows, den), (probs, prob_den), span_basis((rows, den)))

    @property
    def d(self) -> int:
        return len(self.int_values[0][0])


def _over_den(node: int, what: str, pair) -> tuple:
    """``pair`` as (entries, den) with den an int > 0; InputError
    naming the support's ``what`` otherwise."""
    try:
        entries, den = pair
    except (TypeError, ValueError):
        raise InputError(f"node {node}: support {what} must be an (entries, den) pair, "
                         f"got {pair!r}") from None
    if type(den) is not int or den <= 0:
        raise InputError(f"node {node}: support {what} have denominator {den!r}, "
                         "not an int > 0")
    return entries, den


def ensure_support(support: ConditionalSupport) -> ConditionalSupport:
    """The support, or InputError naming the type of anything else."""
    if not isinstance(support, ConditionalSupport):
        raise InputError(f"expected a ConditionalSupport, got {type(support).__name__}")
    return support


def conditional_support(tree: ScenarioTree, node_id: int) -> ConditionalSupport:
    """The support at a non-leaf node of a valid tree, built on the
    first call for the tree and the same object on every later one. Its
    children are grouped by integer increment, and the constructor gets
    the distinct increments over the tree's common denominator D and
    the weights' numerators over theirs, so no Rational is read back or
    made for a value."""
    ensure_valid(tree)
    tree.node(node_id)  # refuses a bad id before the cache, where False would stand for 0
    support = tree._supports.get(node_id)
    if support is not None:
        return support
    if tree.is_leaf(node_id):
        raise InputError(f"node {node_id} is a leaf; no one-step distribution there")
    den, increment, atom = _integer_form(tree)
    rows: list[tuple[int, ...]] = []
    probs: list[Rational] = []
    for c in tree.children(node_id):
        i = atom[c]
        if i < len(rows):
            probs[i] += tree.node(c).prob
        else:
            rows.append(increment[c])
            probs.append(tree.node(c).prob)
    support = ConditionalSupport(node_id, (tuple(rows), den), int_row(probs))
    tree._supports[node_id] = support
    return support


def conditional_mean(support: ConditionalSupport) -> Vector:
    """sum_i q_i x_i, one Rational per entry from integer sums."""
    rows, den = ensure_support(support).int_values
    probs, prob_den = support.int_probs
    return rational_row([sum(map(mul, probs, column)) for column in zip(*rows)], den * prob_den)


# --- strategies and gains --------------------------------------------------

Strategy = Mapping[int, Vector]


def gains(tree: ScenarioTree, strategy: Strategy) -> dict[int, Rational]:
    """Terminal gain per leaf of a valid tree: the sum over the path of
    the one-step inner products (strategy at the parent, price
    increment)."""
    nums, den = int_gains(tree, strategy)
    return {leaf: Q(v, den) if v else ZERO for leaf, v in nums.items()}


def int_gains(tree: ScenarioTree, strategy: Strategy) -> tuple[dict[int, int], int]:
    """``gains`` as integer numerators over one positive denominator:
    the strategy's entries over their common denominator, times the
    tree's integer increments, summed down each path."""
    ensure_valid(tree)
    if not isinstance(strategy, abc.Mapping):
        raise InputError("strategy is not a mapping from node id to vector")
    d = tree.d
    non_leaves = tree.non_leaves()
    for nid in non_leaves:
        if nid not in strategy:
            raise InputError(f"strategy missing at non-leaf node {nid}")
        vec = strategy[nid]
        if not (isinstance(vec, abc.Sequence) and len(vec) == d
                and all(isinstance(v, Rational) for v in vec)):
            raise InputError(f"strategy at node {nid} is not {d} Rationals")
    den, increment, _ = _integer_form(tree)
    nums, h_den = int_row([v for nid in non_leaves for v in strategy[nid]])
    h = {nid: nums[i * d:(i + 1) * d] for i, nid in enumerate(non_leaves)}
    gain = {tree.root: 0}
    for nd in tree.order[1:]:
        gain[nd.id] = gain[nd.parent] + sum(map(mul, h[nd.parent], increment[nd.id]))
    return {leaf: gain[leaf] for leaf in tree.leaves()}, h_den * den


# --- leaf densities ---------------------------------------------------------


class LeafDensity(Record):
    """Strictly positive per-leaf density with total mass one under the
    tree's leaf probabilities."""

    __slots__ = ("values",)

    values: tuple[tuple[int, Rational], ...]  # (leaf id, z) sorted by leaf id

    @staticmethod
    def from_mapping(mapping: Mapping[int, Rational]) -> "LeafDensity":
        """The density of ``{leaf id: z}``; InputError on anything but a
        mapping, or on a key that is not an int, or is a bool, before
        the keys are sorted."""
        if not isinstance(mapping, abc.Mapping):
            raise InputError(f"a density is a {{leaf id: z}} mapping, got {mapping!r}")
        for leaf in mapping:
            _check_int(leaf, "density leaf id")
        return LeafDensity(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, Rational]:
        return dict(self.values)


def path_probabilities(tree: ScenarioTree) -> dict[int, Rational]:
    """Probability of reaching each node (not only leaves) of a valid
    tree."""
    ensure_valid(tree)
    prob = {tree.root: tree.node(tree.root).prob}
    for nd in tree.order[1:]:
        prob[nd.id] = prob[nd.parent] * nd.prob
    return prob


def leaf_probabilities(tree: ScenarioTree) -> dict[int, Rational]:
    prob = path_probabilities(tree)
    return {leaf: prob[leaf] for leaf in tree.leaves()}


def check_density(tree: ScenarioTree, density: LeafDensity) -> None:
    """Raise InputError unless density's values are a tuple of (leaf id,
    z) pairs, each z a Rational > 0, that list each leaf once and no
    other node, with mass 1."""
    if not isinstance(density, LeafDensity):
        raise InputError(f"density is a {type(density).__name__}, not a LeafDensity")
    values = density.values
    if type(values) is not tuple:
        raise InputError(f"density values {values!r} are not a tuple of (leaf id, z) pairs")
    for pair in values:
        if type(pair) is not tuple or len(pair) != 2:
            raise InputError(f"density entry {pair!r} is not a (leaf id, z) pair")
        leaf, z = pair
        _check_int(leaf, "density leaf id")  # before as_dict hashes it
        if not (isinstance(z, Rational) and z > 0):
            raise InputError(f"density not strictly positive or not a Rational "
                             f"at leaf {leaf}: {z!r}")
    vals = density.as_dict()
    if len(vals) != len(values):
        raise InputError("density lists a leaf more than once")
    leaves = tree.leaves()
    if set(vals) != set(leaves):
        raise InputError("density keys do not match the tree's leaves")
    p = leaf_probabilities(tree)
    mass = sum((p[leaf] * vals[leaf] for leaf in leaves), ZERO)
    if mass != 1:
        raise InputError(f"density mass {mass} != 1")


def density_process(tree: ScenarioTree, density: LeafDensity) -> dict[int, Rational]:
    """Per-node conditional expectation of the leaf density on a valid
    tree: z itself on leaves, probability-weighted child averages going
    up."""
    check_density(ensure_valid(tree), density)
    z = density.as_dict()
    for nd in reversed(tree.order[1:]):  # every node before its parent
        z[nd.parent] = z.get(nd.parent, ZERO) + nd.prob * z[nd.id]
    return z


# --- JSON ----------------------------------------------------------------


def tree_to_json(tree: ScenarioTree) -> dict:
    """The documented JSON schema of any tree, an invalid one included;
    InputError on anything but a ScenarioTree."""
    if not isinstance(tree, ScenarioTree):
        raise InputError(f"expected a ScenarioTree, got {type(tree).__name__}")
    return {
        "d": tree.d,
        "N": tree.horizon,
        "nodes": [
            {
                "id": nd.id,
                "parent": nd.parent,
                "prob": format_rational(nd.prob),
                "price": [format_rational(v) for v in nd.price],
            }
            for nd in tree.nodes
        ],
    }


def tree_from_json(data) -> ScenarioTree:
    """Accepts a dict or a JSON string in the documented schema."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("tree JSON must be an object")
    try:
        d = data["d"]
        horizon = data["N"]
        raw_nodes = data["nodes"]
    except KeyError as exc:
        raise InputError(f"tree JSON missing field: {exc}") from exc
    if not isinstance(raw_nodes, list):
        raise InputError("'nodes' must be a list")
    nodes = []
    for item in raw_nodes:
        if not isinstance(item, dict):
            raise InputError("each node must be an object")
        try:
            nid = item["id"]
            parent = item["parent"]
            price = item["price"]
        except KeyError as exc:
            raise InputError(f"node missing field: {exc}") from exc
        prob_raw = item.get("prob")
        if prob_raw is None:
            if parent is not None:
                raise InputError(f"node {nid}: missing transition probability")
            prob = ONE
        else:
            prob = parse_rational(prob_raw)
        if not isinstance(price, list):
            raise InputError(f"node {nid}: price must be a list of rationals")
        nodes.append(Node(nid, parent, prob, tuple([parse_rational(v) for v in price])))
    return ScenarioTree(d, horizon, nodes)
