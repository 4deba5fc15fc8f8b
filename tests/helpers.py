"""Hand-built scenario trees shared across test modules."""

from arbcheck import Q, ScenarioTree
from arbcheck.rationals import as_rational
from arbcheck.tree import Node


def vec(values):
    """Exact rational tuple from ints, "p/q" strings or rationals."""
    return tuple(as_rational(v) for v in values)


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
        prob = Q(1) if prob is None else as_rational(prob)
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
            child = tuple(b + as_rational(x) for b, x in zip(base, dlt))
            kids.append((p, (child, [])))
        return build(dim, (base, kids))
    base = as_rational(0 if root is None else root)
    kids = [(p, (base + as_rational(dlt), [])) for p, dlt in zip(probs, deltas)]
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
