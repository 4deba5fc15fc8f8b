"""Independent re-check of an arbcheck ``--json`` report.

Uses only ``fractions.Fraction`` and the tree JSON the program was
given; nothing from arbcheck is called, so a bug in the package's own
re-checks cannot hide here. ``check_report`` returns a list of problems,
empty when every verdict and witness holds:

* the three verdicts agree and ``consistent`` is true;
* a tree built to have a martingale measure gets the no-arbitrage verdict;
* an arbitrage strategy gains >= 0 on every leaf and > 0 on some leaf;
* a martingale density is > 0 on every leaf, has mass 1, gives zero
  martingale residuals and matches the reported bound;
* every node certificate satisfies its defining conditions: in-ri
  weights are > 0, sum to 1 and average the atoms to the origin;
  not-in-ri directions have max-norm 1, lie in the atoms' span and are
  >= 0 on every atom and > 0 on some.
"""

from __future__ import annotations

from fractions import Fraction


class _Tree:
    def __init__(self, data: dict):
        self.d = data["d"]
        self.price = {}
        self.prob = {}
        self.parent = {}
        for nd in data["nodes"]:
            nid = nd["id"]
            self.price[nid] = tuple(Fraction(v) for v in nd["price"])
            self.prob[nid] = Fraction(nd["prob"]) if nd.get("prob") is not None else Fraction(1)
            self.parent[nid] = nd["parent"]
        self.children = {nid: [] for nid in self.price}
        for nid in sorted(self.price):
            if self.parent[nid] is not None:
                self.children[self.parent[nid]].append(nid)
        self.root = next(nid for nid, p in self.parent.items() if p is None)
        self.leaves = sorted(nid for nid, kids in self.children.items() if not kids)
        self.non_leaves = sorted(nid for nid, kids in self.children.items() if kids)

    def increment(self, child: int) -> tuple:
        base = self.price[self.parent[child]]
        return tuple(a - b for a, b in zip(self.price[child], base))

    def atoms(self, nid: int) -> list:
        """Distinct one-step increments in child-id order, probabilities summed."""
        weight: dict = {}
        for c in self.children[nid]:
            x = self.increment(c)
            weight[x] = weight.get(x, 0) + self.prob[c]
        return list(weight.items())

    def reach(self) -> dict:
        out = {self.root: self.prob[self.root]}
        for nid in sorted(self.price, key=self.depth):
            for c in self.children[nid]:
                out[c] = out[nid] * self.prob[c]
        return out

    def depth(self, nid: int) -> int:
        k = 0
        while self.parent[nid] is not None:
            nid = self.parent[nid]
            k += 1
        return k


def _rank(vectors) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def check_strategy(tree: _Tree, strategy: dict) -> list:
    if sorted(strategy) != sorted(str(n) for n in tree.non_leaves):
        return ["strategy does not cover exactly the non-leaf nodes"]
    gamma = {int(k): tuple(Fraction(v) for v in vec) for k, vec in strategy.items()}
    if any(len(vec) != tree.d for vec in gamma.values()):
        return ["strategy vector of the wrong dimension"]
    gains = []
    for leaf in tree.leaves:
        total = Fraction(0)
        nid = leaf
        while tree.parent[nid] is not None:
            total += _dot(gamma[tree.parent[nid]], tree.increment(nid))
            nid = tree.parent[nid]
        gains.append(total)
    if any(g < 0 for g in gains):
        return ["arbitrage strategy loses on some leaf"]
    if not any(g > 0 for g in gains):
        return ["arbitrage strategy gains on no leaf"]
    return []


def check_density(tree: _Tree, density: dict, bound: str) -> list:
    if sorted(density) != sorted(str(n) for n in tree.leaves):
        return ["density does not cover exactly the leaves"]
    z = {int(k): Fraction(v) for k, v in density.items()}
    if any(v <= 0 for v in z.values()):
        return ["density not strictly positive"]
    reach = tree.reach()
    if sum(reach[leaf] * z[leaf] for leaf in tree.leaves) != 1:
        return ["density mass is not 1"]
    if bound is None or Fraction(bound) != max(z.values()):
        return ["density bound is not its largest value"]
    zproc = dict(z)
    for nid in sorted(tree.non_leaves, key=tree.depth, reverse=True):
        zproc[nid] = sum(tree.prob[c] * zproc[c] for c in tree.children[nid])
    for nid in tree.non_leaves:
        for j in range(tree.d):
            residual = sum(tree.prob[c] * zproc[c] * tree.increment(c)[j] for c in tree.children[nid])
            if residual != 0:
                return [f"martingale residual at node {nid} is not zero"]
    return []


def check_certificate(atoms: list, cert: dict) -> list:
    points = [x for x, _ in atoms]
    node = cert.get("node")
    if cert.get("verdict") == "in_ri":
        w = [Fraction(v) for v in cert["weights"]]
        if len(w) != len(points):
            return [f"node {node}: one weight per atom expected"]
        if any(v <= 0 for v in w) or sum(w) != 1:
            return [f"node {node}: weights are not a positive convex combination"]
        if any(_dot(w, [x[j] for x in points]) != 0 for j in range(len(points[0]))):
            return [f"node {node}: weights do not average the atoms to the origin"]
        return []
    if cert.get("verdict") == "not_in_ri":
        h = tuple(Fraction(v) for v in cert["direction"])
        if len(h) != len(points[0]) or max(abs(c) for c in h) != 1:
            return [f"node {node}: direction is not of max-norm 1"]
        if _rank(points + [h]) != _rank(points):
            return [f"node {node}: direction outside the atoms' span"]
        inner = [_dot(h, x) for x in points]
        if any(v < 0 for v in inner) or not any(v > 0 for v in inner):
            return [f"node {node}: direction does not separate the atoms from the origin"]
        return []
    return [f"node {node}: unknown certificate verdict"]


def check_report(tree_data: dict, report: dict, expect_no_arbitrage: bool) -> list:
    """Problems with ``report`` (arbcheck's ``check --json`` object) for
    the tree ``tree_data`` (its JSON object); empty when all hold."""
    tree = _Tree(tree_data)
    na = report.get("verdict_na_strategy")
    problems = []
    if report.get("consistent") is not True:
        problems.append("report is not consistent")
    if not na == report.get("verdict_geometry") == report.get("verdict_emm"):
        problems.append("the three verdicts disagree")
    if expect_no_arbitrage and na is not True:
        problems.append("tree with a martingale measure by construction got an arbitrage verdict")
    wit = report.get("witnesses") or {}
    if (wit.get("arbitrage") is None) != (na is True):
        problems.append("arbitrage witness does not match the strategy verdict")
    elif wit.get("arbitrage") is not None:
        problems += check_strategy(tree, wit["arbitrage"])
    if (wit.get("density") is None) == (report.get("verdict_emm") is True):
        problems.append("density witness does not match the martingale verdict")
    elif wit.get("density") is not None:
        problems += check_density(tree, wit["density"], wit.get("bound"))
    certs = report.get("certificates") or []
    if [c.get("node") for c in certs] != tree.non_leaves:
        problems.append("certificates do not cover exactly the non-leaf nodes")
        return problems
    for cert in certs:
        problems += check_certificate(tree.atoms(cert["node"]), cert)
    all_in = all(c.get("verdict") == "in_ri" for c in certs)
    if all_in != report.get("verdict_geometry"):
        problems.append("geometry verdict does not match the node certificates")
    return problems
