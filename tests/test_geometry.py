import random

import pytest

from arbcheck import Q
from arbcheck.errors import InputError
from arbcheck.geometry import (
    InRi,
    NotInRi,
    arbitrage_direction,
    check_ri_certificate,
    max_norm_normalize,
    ri_conv_contains_origin,
    separation_optimum,
)
from arbcheck.linalg import in_span
from arbcheck.rationals import dot
from helpers import vec

ZERO = Q(0)


def pts(*rows):
    return [vec(r) for r in rows]


class TestNormalize:
    def test_examples(self):
        assert max_norm_normalize((Q(2), Q(-4))) == (Q(1, 2), Q(-1))
        assert max_norm_normalize((Q(-3),)) == (Q(-1),)
        assert max_norm_normalize((Q(1, 7), Q(0))) == (Q(1), Q(0))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            max_norm_normalize((ZERO, ZERO))


class TestVerdicts:
    def test_two_sided_segment(self):
        out = ri_conv_contains_origin(pts((1,), (-1,)))
        assert isinstance(out, InRi)
        assert sum(out.weights, ZERO) == Q(1)
        assert all(w > 0 for w in out.weights)

    def test_one_sided_pair(self):
        out = ri_conv_contains_origin(pts((1,), (2,)))
        assert out == NotInRi(direction=(Q(1),))

    def test_single_zero_atom(self):
        assert ri_conv_contains_origin(pts((0, 0))) == InRi(weights=(Q(1),))

    def test_single_nonzero_atom(self):
        out = ri_conv_contains_origin(pts((0, 5)))
        assert isinstance(out, NotInRi)
        assert out.direction == (ZERO, Q(1))

    def test_surrounding_triangle(self):
        out = ri_conv_contains_origin(pts((1, 0), (0, 1), (-1, -1)))
        assert isinstance(out, InRi)
        assert check_ri_certificate(pts((1, 0), (0, 1), (-1, -1)), out)

    def test_quadrant_pair(self):
        points = pts((1, 0), (0, 1))
        out = ri_conv_contains_origin(points)
        assert isinstance(out, NotInRi)
        assert check_ri_certificate(points, out)

    def test_origin_on_boundary(self):
        # origin is a vertex of the hull: in conv but not in its
        # relative interior
        points = pts((0, 0), (1, 0), (0, 1))
        out = ri_conv_contains_origin(points)
        assert isinstance(out, NotInRi)

    def test_lower_dimensional_interior(self):
        # a segment through the origin inside R^3: relative interior
        # is taken within the affine hull, so this is a yes
        points = pts((1, 1, 0), (-2, -2, 0))
        out = ri_conv_contains_origin(points)
        assert isinstance(out, InRi)

    def test_input_errors(self):
        with pytest.raises(InputError):
            ri_conv_contains_origin([])
        with pytest.raises(InputError):
            ri_conv_contains_origin(pts((1,), (1, 2)))


class TestSeparation:
    def test_zero_when_interior(self):
        value, h = separation_optimum(pts((1,), (-1,)))
        assert value == ZERO
        assert h == (ZERO,)

    def test_positive_when_separated(self):
        value, h = separation_optimum(pts((1,), (2,)))
        assert value > 0
        assert all(dot(h, x) >= 0 for x in pts((1,), (2,)))

    def test_degenerate_all_zero(self):
        assert separation_optimum([(ZERO,)]) == (ZERO, (ZERO,))


class TestDirection:
    def test_none_under_interior(self):
        assert arbitrage_direction(pts((1,), (-1,))) is None
        assert arbitrage_direction(pts((1, 0), (0, 1), (-1, -1))) is None

    def test_direction_invariants(self):
        points = pts((1, 2), (2, 1), (1, 1))
        h = arbitrage_direction(points)
        assert h is not None
        assert max(abs(c) for c in h) == Q(1)
        assert in_span(h, points)
        dots = [dot(h, x) for x in points]
        assert all(v >= 0 for v in dots) and any(v > 0 for v in dots)


class TestCertificateCheck:
    def test_rejects_tampered_weights(self):
        points = pts((1,), (-1,))
        assert check_ri_certificate(points, InRi(weights=(Q(1, 2), Q(1, 2))))
        assert not check_ri_certificate(points, InRi(weights=(Q(1, 4), Q(1, 4))))
        assert not check_ri_certificate(points, InRi(weights=(Q(3, 4), Q(1, 4))))
        assert not check_ri_certificate(points, InRi(weights=(Q(1), ZERO)))
        assert not check_ri_certificate(points, InRi(weights=(Q(1, 2),)))

    def test_rejects_tampered_direction(self):
        points = pts((1,), (2,))
        assert check_ri_certificate(points, NotInRi(direction=(Q(1),)))
        assert not check_ri_certificate(points, NotInRi(direction=(Q(2),)))
        assert not check_ri_certificate(points, NotInRi(direction=(Q(-1),)))
        assert not check_ri_certificate(points, NotInRi(direction=(ZERO,)))

    def test_rejects_direction_outside_span(self):
        points = pts((1, 0), (2, 0))
        assert not check_ri_certificate(points, NotInRi(direction=(ZERO, Q(1))))
        assert check_ri_certificate(points, NotInRi(direction=(Q(1), ZERO)))


def test_dichotomy_sample():
    """Random atom sets: exactly one verdict kind, certificates check,
    and the separation optimum is zero precisely in the interior case."""
    rng = random.Random(5150)
    kinds = {InRi: 0, NotInRi: 0}
    for _ in range(300):
        d = rng.randint(1, 3)
        k = rng.randint(1, 5)
        points = [tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(d)) for _ in range(k)]
        out = ri_conv_contains_origin(points)
        kinds[type(out)] += 1
        assert check_ri_certificate(points, out)
        value, _ = separation_optimum(points)
        if isinstance(out, InRi):
            assert value == ZERO
            assert arbitrage_direction(points) is None
        else:
            assert value > 0
    assert kinds[InRi] > 0 and kinds[NotInRi] > 0


def test_scaling_preserves_verdict():
    rng = random.Random(61)
    for _ in range(40):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        points = [tuple(Q(rng.randint(-3, 3)) for _ in range(d))
                  for _ in range(k)]
        c = Q(rng.randint(1, 9), rng.randint(1, 9))
        scaled = [tuple(c * x for x in p) for p in points]
        assert type(ri_conv_contains_origin(points)) \
            is type(ri_conv_contains_origin(scaled))
