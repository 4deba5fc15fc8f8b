"""Scenario trees: a finite filtered probability space with adapted
d-dimensional prices.

The measure lives in the transition probabilities; leaf weights are
derived path products. Probabilities must be strictly positive, so one
all-positive representative of the measure's equivalence class is fixed
and no "almost surely" qualifiers are needed anywhere downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError
from .rationals import (
    ONE,
    Rational,
    Vector,
    ZERO,
    dot,
    format_rational,
    parse_rational,
    parse_vector,
    vec_sub,
    zero_vector,
)


@dataclass(frozen=True)
class Node:
    id: int
    parent: Optional[int]  # None at the root
    prob: Rational  # transition probability from the parent; 1 at the root
    price: Vector


@dataclass(frozen=True)
class Violation:
    node: Optional[int]
    rule: str
    detail: str

    def __str__(self) -> str:
        where = f"node {self.node}" if self.node is not None else "tree"
        return f"{where}: {self.rule}: {self.detail}"


class ScenarioTree:
    """Immutable rooted tree. Construction performs only the structural
    checks without which no operation makes sense (unique ids, a single
    root, parents resolve, no cycles); the semantic invariants are the
    business of validate()."""

    def __init__(self, d: int, horizon: int, nodes: Iterable[Node]):
        self.d = int(d)
        self.horizon = int(horizon)
        self.nodes = tuple(sorted(nodes, key=lambda nd: nd.id))
        if self.d < 1:
            raise InputError(f"asset count must be >= 1, got {d}")
        if self.horizon < 0:
            raise InputError(f"horizon must be >= 0, got {horizon}")
        if not self.nodes:
            raise InputError("a tree needs at least a root node")

        by_id: dict[int, Node] = {}
        for nd in self.nodes:
            if nd.id in by_id:
                raise InputError(f"duplicate node id {nd.id}")
            by_id[nd.id] = nd
        self._by_id = by_id

        roots = [nd.id for nd in self.nodes if nd.parent is None]
        if len(roots) != 1:
            raise InputError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]

        children: dict[int, list[int]] = {nd.id: [] for nd in self.nodes}
        for nd in self.nodes:
            if nd.parent is None:
                continue
            if nd.parent not in by_id:
                raise InputError(f"node {nd.id} references missing parent {nd.parent}")
            children[nd.parent].append(nd.id)
        self._children = {k: tuple(sorted(v)) for k, v in children.items()}

        depth: dict[int, int] = {self.root: 0}
        frontier = [self.root]
        while frontier:
            nxt: list[int] = []
            for nid in frontier:
                for c in self._children[nid]:
                    depth[c] = depth[nid] + 1
                    nxt.append(c)
            frontier = nxt
        if len(depth) != len(self.nodes):
            orphans = sorted(set(by_id) - set(depth))
            raise InputError(f"nodes unreachable from the root (cycle?): {orphans}")
        self._depth = depth

    # --- structure queries ----------------------------------------------

    def node(self, node_id: int) -> Node:
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScenarioTree)
            and self.d == other.d
            and self.horizon == other.horizon
            and self.nodes == other.nodes
        )

    def __repr__(self) -> str:
        return (
            f"ScenarioTree(d={self.d}, horizon={self.horizon}, "
            f"nodes={len(self.nodes)})"
        )


def validate(tree: ScenarioTree) -> list[Violation]:
    """Check the semantic invariants; violations are data, not failures."""
    out: list[Violation] = []
    root = tree.node(tree.root)
    if root.prob != 1:
        out.append(
            Violation(root.id, "root_prob", f"root probability {root.prob} != 1")
        )
    for nd in tree.nodes:
        if len(nd.price) != tree.d:
            out.append(
                Violation(
                    nd.id,
                    "price_dim",
                    f"price has {len(nd.price)} components, expected {tree.d}",
                )
            )
        if nd.parent is not None and nd.prob <= 0:
            out.append(
                Violation(
                    nd.id,
                    "prob_positive",
                    f"non-positive transition probability {nd.prob}",
                )
            )
    for nid in tree.non_leaves():
        total = sum((tree.node(c).prob for c in tree.children(nid)), ZERO)
        if total != 1:
            out.append(
                Violation(
                    nid,
                    "prob_sum",
                    f"child probabilities sum to {total} != 1",
                )
            )
    for leaf in tree.leaves():
        dep = tree.depth(leaf)
        if dep != tree.horizon:
            out.append(
                Violation(
                    leaf,
                    "leaf_depth",
                    f"leaf at depth {dep}, horizon is {tree.horizon}",
                )
            )
    return out


def ensure_valid(tree: ScenarioTree) -> ScenarioTree:
    violations = validate(tree)
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise InputError(f"invalid tree: {listing}")
    return tree


# --- conditional one-step structure ---------------------------------------


@dataclass(frozen=True)
class ConditionalSupport:
    """Atoms (x, q) of the one-step conditional increment distribution at
    a non-leaf node: distinct increment values with their summed
    transition probabilities."""

    node: int
    atoms: tuple[tuple[Vector, Rational], ...]

    @property
    def d(self) -> int:
        return len(self.atoms[0][0])

    def values(self) -> tuple[Vector, ...]:
        return tuple(x for x, _ in self.atoms)


def conditional_support(tree: ScenarioTree, node_id: int) -> ConditionalSupport:
    if tree.is_leaf(node_id):
        raise InputError(f"node {node_id} is a leaf; no one-step distribution there")
    base = tree.node(node_id).price
    order: list[Vector] = []
    weight: dict[Vector, Rational] = {}
    for c in tree.children(node_id):
        child = tree.node(c)
        delta = vec_sub(child.price, base)
        if delta in weight:
            weight[delta] += child.prob
        else:
            weight[delta] = child.prob
            order.append(delta)
    return ConditionalSupport(node_id, tuple((x, weight[x]) for x in order))


def conditional_mean(support: ConditionalSupport) -> Vector:
    mean = list(zero_vector(support.d))
    for x, q in support.atoms:
        for j, xj in enumerate(x):
            if xj:
                mean[j] += q * xj
    return tuple(mean)


# --- strategies and gains --------------------------------------------------

Strategy = Mapping[int, Vector]


def gains(tree: ScenarioTree, strategy: Strategy) -> dict[int, Rational]:
    """Terminal gain per leaf: the sum over the path of the one-step
    inner products (strategy at the parent, price increment)."""
    for nid in tree.non_leaves():
        if nid not in strategy:
            raise InputError(f"strategy missing at non-leaf node {nid}")
        if len(strategy[nid]) != tree.d:
            raise InputError(f"strategy at node {nid} has wrong dimension")
    out: dict[int, Rational] = {}
    stack: list[tuple[int, Rational]] = [(tree.root, ZERO)]
    while stack:
        nid, acc = stack.pop()
        kids = tree.children(nid)
        if not kids:
            out[nid] = acc
            continue
        gamma = strategy[nid]
        base = tree.node(nid).price
        for c in kids:
            step = dot(gamma, vec_sub(tree.node(c).price, base))
            stack.append((c, acc + step))
    return out


# --- leaf densities and reweighting ----------------------------------------


@dataclass(frozen=True)
class LeafDensity:
    """Strictly positive per-leaf density with total mass one under the
    tree's leaf probabilities."""

    values: tuple[tuple[int, Rational], ...]  # (leaf id, z) sorted by leaf id

    @staticmethod
    def from_mapping(mapping: Mapping[int, Rational]) -> "LeafDensity":
        return LeafDensity(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, Rational]:
        return dict(self.values)


def path_probabilities(tree: ScenarioTree) -> dict[int, Rational]:
    """Probability of reaching each node (not only leaves)."""
    prob: dict[int, Rational] = {tree.root: tree.node(tree.root).prob}
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        for c in tree.children(nid):
            prob[c] = prob[nid] * tree.node(c).prob
            stack.append(c)
    return prob


def leaf_probabilities(tree: ScenarioTree) -> dict[int, Rational]:
    prob = path_probabilities(tree)
    return {leaf: prob[leaf] for leaf in tree.leaves()}


def check_density(tree: ScenarioTree, density: LeafDensity) -> None:
    """Raise InputError unless density is strictly positive, covers
    exactly the leaves, and has exact total mass 1."""
    vals = density.as_dict()
    leaves = tree.leaves()
    if set(vals) != set(leaves):
        raise InputError("density keys do not match the tree's leaves")
    for leaf, z in vals.items():
        if z <= 0:
            raise InputError(f"density not strictly positive at leaf {leaf}: {z}")
    p = leaf_probabilities(tree)
    mass = sum((p[leaf] * vals[leaf] for leaf in leaves), ZERO)
    if mass != 1:
        raise InputError(f"density mass {mass} != 1")


def density_process(tree: ScenarioTree, density: LeafDensity) -> dict[int, Rational]:
    """Per-node conditional expectation of the leaf density: z itself on
    leaves, probability-weighted child averages going up."""
    check_density(tree, density)
    vals = density.as_dict()
    z: dict[int, Rational] = {}
    for nid in sorted((n.id for n in tree.nodes), key=lambda i: -tree.depth(i)):
        if tree.is_leaf(nid):
            z[nid] = vals[nid]
        else:
            z[nid] = sum((tree.node(c).prob * z[c] for c in tree.children(nid)), ZERO)
    return z


def reweight(tree: ScenarioTree, density: LeafDensity) -> ScenarioTree:
    """The tree with the same shape and prices under the reweighted
    measure: each transition probability becomes
    q' = q * Z_child / Z_parent, Z the density process."""
    z = density_process(tree, density)
    nodes = []
    for nd in tree.nodes:
        if nd.parent is None:
            nodes.append(nd)
        else:
            q = nd.prob * z[nd.id] / z[nd.parent]
            nodes.append(Node(nd.id, nd.parent, q, nd.price))
    return ScenarioTree(tree.d, tree.horizon, nodes)


# --- JSON ----------------------------------------------------------------


def tree_to_json(tree: ScenarioTree) -> dict:
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


def _json_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false, floats and strings are not counts or ids
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


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
        d = _json_int(data["d"], "'d'")
        horizon = _json_int(data["N"], "'N'")
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
            nid = _json_int(item["id"], "node id")
            parent = item["parent"]
            price = item["price"]
        except KeyError as exc:
            raise InputError(f"node missing field: {exc}") from exc
        if parent is not None:
            parent = _json_int(parent, f"node {nid}: parent")
        prob_raw = item.get("prob")
        if prob_raw is None:
            if parent is not None:
                raise InputError(f"node {nid}: missing transition probability")
            prob = ONE
        else:
            prob = parse_rational(prob_raw)
        if not isinstance(price, list):
            raise InputError(f"node {nid}: price must be a list of rationals")
        nodes.append(Node(nid, parent, prob, parse_vector(price)))
    return ScenarioTree(d, horizon, nodes)
