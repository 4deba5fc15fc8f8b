import random

from arbcheck import Q, in_span, span_basis
from helpers import vec


def V(*rows):
    return [vec(r) for r in rows]


def test_span_basis_examples():
    assert span_basis(V((1, 2), (2, 4))) == (vec((1, 2)),)
    assert span_basis(V((0, 0))) == ()
    assert span_basis([]) == ()
    basis = span_basis(V((1, 1, 0), (0, 1, 1), (1, 0, -1)))
    assert basis == tuple(V((1, 0, -1), (0, 1, 1)))


def test_rank():
    assert len(span_basis(V((1, 2), (2, 4)))) == 1
    assert len(span_basis(V((1, 0), (0, 1)))) == 2
    assert len(span_basis(V((0, 0), (0, 0)))) == 0
    assert len(span_basis([])) == 0


def test_in_span():
    vecs = V((1, 1, 0), (0, 1, 1))
    assert in_span(vec((1, 2, 1)), vecs)
    assert in_span(vec((0, 0, 0)), vecs)
    assert not in_span(vec((1, 0, 0)), vecs)
    assert in_span(vec((0, 0)), [])


def test_basis_is_canonical_under_presentation():
    """Same subspace, different generating sets: identical basis tuple."""
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randint(1, 4)
        k = rng.randint(1, 4)
        vecs = [tuple(Q(rng.randint(-5, 5)) for _ in range(d)) for _ in range(k)]
        basis = span_basis(vecs)

        shuffled = list(vecs)
        rng.shuffle(shuffled)
        scaled = []
        for v in shuffled:
            factor = Q(rng.randint(1, 7))
            scaled.append(tuple(c * factor for c in v))
        # throw in a dependent vector: a sum of two generators
        if len(scaled) >= 2:
            extra = tuple(a + b for a, b in zip(scaled[0], scaled[1]))
            scaled.append(extra)
        assert span_basis(scaled) == basis

        for b in basis:
            assert in_span(b, vecs)
        for v in vecs:
            assert in_span(v, basis)
