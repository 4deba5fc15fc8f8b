"""Hand-built scenario trees, rational vector helpers and a Hypothesis
strategy shared across test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from arbcheck import Q, Rational, ScenarioTree, in_span, parse_rational, span_basis
from arbcheck.errors import InputError
from arbcheck.rationals import ZERO, int_row, rational_row
from arbcheck.tree import ConditionalSupport, Node, density_process
from linalg_oracle import rref_in_span


def rational(value):
    """A Rational from an int, a "p/q" string or a Rational; a float, or
    anything else, raises InputError, so no fixture is inexact."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        raise InputError(f"refusing inexact float {value!r}")
    return Q(value) if isinstance(value, int) else parse_rational(value)


def vec(values):
    """Exact rational tuple from ints, "p/q" strings or rationals."""
    return tuple(rational(v) for v in values)


def support_from_atoms(node, atoms):
    """The ConditionalSupport at ``node`` with these (value, weight)
    atoms, each value a tuple of Rationals and each weight a Rational:
    ``int_row`` of all the values and of the weights, then the
    constructor, which checks and reduces that integer form."""
    nums, den = int_row([v for x, _ in atoms for v in x])
    entries = iter(nums)
    rows = tuple(tuple(next(entries) for _ in x) for x, _ in atoms)
    return ConditionalSupport(node, (rows, den), int_row([q for _, q in atoms]))


def rational_atoms(support):
    """The support's (value, weight) atoms as Rationals, in atom order."""
    rows, den = support.int_values
    probs, prob_den = support.int_probs
    return tuple((rational_row(x, den), Q(q, prob_den)) for x, q in zip(rows, probs))


def atom_values(support):
    """The support's atom values as Rational vectors, in atom order."""
    return tuple(x for x, _ in rational_atoms(support))


def integer_basis(support):
    """The support's echelon basis as it is stored, each integer row as
    Rationals: the rows the node programs combine."""
    return tuple(rational_row(row, 1) for _, row in support.int_basis)


def rational_basis(support):
    """The support's echelon basis as Rational vectors, 1 at each pivot."""
    return tuple(rational_row(row, row[piv]) for piv, row in support.int_basis)


def dot(u, v):
    """The inner product of two Rational vectors, summed in Rationals."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch in dot product: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def vec_sub(u, v):
    """``u - v`` entry by entry."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def _price(value):
    if not isinstance(value, (list, tuple)):
        value = (value,)
    return vec(value)


def build(d, spec):
    """Build a tree from nested (price, [(prob, subspec), ...]) pairs.

    Node ids are assigned breadth-first, siblings left to right, so the
    root is always id 0.  The horizon is the maximum leaf depth; callers
    are responsible for making leaves sit at a common depth when they
    want a tree that passes validation.
    """
    nodes = []
    queue = [(None, None, spec, 0)]
    horizon = 0
    next_id = 0
    while queue:
        parent, prob, (price, children), depth = queue.pop(0)
        nid = next_id
        next_id += 1
        prob = Q(1) if prob is None else rational(prob)
        nodes.append(Node(nid, parent, prob, _price(price)))
        horizon = max(horizon, depth)
        for p, sub in children:
            queue.append((nid, p, sub, depth + 1))
    return ScenarioTree(d, horizon, nodes)


def one_step(deltas, probs, root=None):
    """Single-period tree: one child per price increment."""
    first = deltas[0]
    if isinstance(first, (list, tuple)):
        dim = len(first)
        base = _price(root if root is not None else (0,) * dim)
        kids = []
        for p, dlt in zip(probs, deltas):
            child = tuple(b + rational(x) for b, x in zip(base, dlt))
            kids.append((p, (child, [])))
        return build(dim, (base, kids))
    base = rational(0 if root is None else root)
    kids = [(p, (base + rational(dlt), [])) for p, dlt in zip(probs, deltas)]
    return build(1, (base, kids))


def skewed_coin():
    """Up 1 with probability 3/4, down 1 with probability 1/4."""
    return one_step([1, -1], ["3/4", "1/4"])


def skewed_coin_two_period():
    """The skewed coin applied independently at both steps."""
    step = lambda price: [
        ("3/4", (price + 1, [])),
        ("1/4", (price - 1, [])),
    ]
    spec = (0, [
        ("3/4", (1, step(1))),
        ("1/4", (-1, step(-1))),
    ])
    return build(1, spec)


def sure_win():
    """Both branches move up: a one-step arbitrage."""
    return one_step([1, 2], ["1/2", "1/2"])


def localized_arbitrage():
    """Two periods, fair coin everywhere except one depth-1 node whose
    both increments are positive.  An optimal strategy bets only there."""
    spec = (0, [
        ("1/2", (1, [("1/2", (2, [])), ("1/2", (3, []))])),
        ("1/2", (-1, [("1/2", (0, [])), ("1/2", (-2, []))])),
    ])
    return build(1, spec)


def binomial(steps, price=0):
    """Symmetric random walk: +-1 with probability 1/2 each."""
    def sub(p, depth):
        if depth == 0:
            return (p, [])
        return (p, [(Q(1, 2), sub(p + 1, depth - 1)),
                    (Q(1, 2), sub(p - 1, depth - 1))])
    return build(1, sub(price, steps))


def single_chain(steps, price=5):
    """Deterministic single path with a constant price."""
    spec = (price, [])
    for _ in range(steps):
        spec = (price, [(Q(1), spec)])
    return build(1, spec)


def support(points):
    """The ConditionalSupport at node 0 with one atom per point, in
    order and of equal weight; duplicate points stay separate atoms, so
    an InRi certificate has one weight per point."""
    pts = tuple(tuple(p) for p in points)
    return support_from_atoms(0, tuple((x, Q(1, len(pts))) for x in pts))


def assert_in_span_matches_reference(cs):
    """``in_span`` against ``cs.int_basis`` answers as the rational
    reference ``rref_in_span`` against the atom values, for each atom
    value, each unit vector, the all-ones vector and the sum of the
    values."""
    d = cs.d
    units = [tuple(Q(int(i == j)) for j in range(d)) for i in range(d)]
    values = atom_values(cs)
    total = tuple(sum(column, Q(0)) for column in zip(*values))
    for query in [*values, *units, (Q(1),) * d, total]:
        assert in_span(query, cs.int_basis) == rref_in_span(query, values), query


@st.composite
def kernel_line_rows(draw, dims, entries):
    """n = r + 1 int rows of rank r, in a dimension drawn from ``dims``:
    r independent rows of ``entries`` and, at a drawn place among them,
    one small integer combination of them, so the zero row, a repeated
    direction and a vanishing combination with a zero entry are common."""
    d = draw(dims)
    r = draw(st.integers(0, d))
    rows = draw(st.lists(st.tuples(*[entries] * d), min_size=r, max_size=r))
    assume(len(span_basis((rows, 1))) == r)
    coeffs = draw(st.lists(st.integers(-3, 2), min_size=r, max_size=r))
    extra = tuple(sum(c * x[j] for c, x in zip(coeffs, rows)) for j in range(d))
    rows.insert(draw(st.integers(0, r)), extra)
    return rows


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the arguments of
    each call in the returned list."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def reweight(tree, density):
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
