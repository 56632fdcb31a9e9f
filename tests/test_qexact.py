import random

import pytest

from moyeval.qexact import (
    ExactDivisionError,
    QLaurent,
    TruncatedRSeries,
    exact_div,
    qbinom,
    qfact,
    qint,
    qmultinom,
)


def rand_qlaurent(rng, max_terms=5, span=8, coeff=6):
    return QLaurent(
        {rng.randint(-span, span): rng.randint(-coeff, coeff) for _ in range(rng.randint(0, max_terms))}
    )


class TestQLaurent:
    def test_zero_coefficients_dropped(self):
        assert QLaurent({3: 0, 1: 2}).terms == {1: 2}
        assert not QLaurent({0: 0})
        assert QLaurent() == QLaurent.zero()

    def test_basic_arithmetic(self):
        v = QLaurent.monomial(1)
        vinv = QLaurent.monomial(-1)
        assert (v + vinv) * (v + vinv) == QLaurent({2: 1, 0: 2, -2: 1})
        assert v * vinv == QLaurent.one()
        assert v - v == QLaurent.zero()
        assert 3 * v == QLaurent({1: 3})
        assert v * 0 == QLaurent.zero()

    def test_times_v_and_evaluate(self):
        p = QLaurent({2: 1, -2: 1})
        assert p.times_v(4) == QLaurent({6: 1, 2: 1})
        assert p.evaluate_one() == 2
        assert QLaurent.zero().evaluate_one() == 0

    def test_predicates(self):
        assert QLaurent({2: 1, -2: 1}).is_symmetric()
        assert not QLaurent({2: 1}).is_symmetric()
        assert QLaurent({4: 2, 0: 1}).is_nonnegative()
        assert not QLaurent({0: -1}).is_nonnegative()
        assert QLaurent({2: 1, -4: 3}).in_half_powers()
        assert not QLaurent({3: 1}).in_half_powers()
        assert QLaurent.zero().in_half_powers()
        assert QLaurent({5: 1, -3: 2}).max_exponent() == 5
        with pytest.raises(ValueError):
            QLaurent.zero().max_exponent()

    def test_ring_axioms_random(self):
        rng = random.Random(20240817)
        for _ in range(200):
            a, b, c = (rand_qlaurent(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + QLaurent.zero() == a
            assert a * QLaurent.one() == a

    def test_hashable(self):
        assert hash(QLaurent({1: 2})) == hash(QLaurent({1: 2, 5: 0}))
        assert len({QLaurent({0: 1}), QLaurent.one()}) == 1


class TestQuantumCombinatorics:
    def test_qint(self):
        assert qint(0) == QLaurent.zero()
        assert qint(1) == QLaurent.one()
        assert qint(2) == QLaurent({2: 1, -2: 1})
        assert qint(3) == QLaurent({4: 1, 0: 1, -4: 1})
        with pytest.raises(ValueError):
            qint(-1)

    def test_qfact_recursion(self):
        assert qfact(0) == QLaurent.one()
        for n in range(1, 7):
            assert qfact(n) == qfact(n - 1) * qint(n)

    def test_qbinom_frozen_values(self):
        assert qbinom(2, 1) == QLaurent({2: 1, -2: 1})
        assert qbinom(4, 2) == QLaurent({8: 1, 4: 1, 0: 2, -4: 1, -8: 1})
        assert qbinom(3, 0) == QLaurent.one()
        assert qbinom(3, 5) == QLaurent.zero()
        assert qbinom(3, -1) == QLaurent.zero()

    def test_qbinom_pascal(self):
        # [n k] = q^(k/2) [n-1 k] + q^(-(n-k)/2) [n-1 k-1]
        for n in range(1, 8):
            for k in range(1, n):
                lhs = qbinom(n, k)
                rhs = qbinom(n - 1, k).times_v(2 * k) + qbinom(n - 1, k - 1).times_v(-2 * (n - k))
                assert lhs == rhs, (n, k)

    def test_qbinom_symmetric_and_positive(self):
        for n in range(7):
            for k in range(n + 1):
                p = qbinom(n, k)
                assert p == qbinom(n, n - k)
                assert p.is_symmetric()
                assert p.is_nonnegative()
                assert p.in_half_powers()

    def test_qmultinom(self):
        assert qmultinom(2, (1, 1, 0)) == qint(2)
        assert qmultinom(2, (0, 2, 0)) == QLaurent.one()
        assert qmultinom(3, (1, 1, 1)) == qfact(3)
        # implicit remainder part: [3; (1,)] = [3]! / ([1]! [2]!)
        assert qmultinom(3, (1,)) == qbinom(3, 1)
        assert qmultinom(2, (1, 2)) == QLaurent.zero()
        assert qmultinom(2, (-1, 1)) == QLaurent.zero()
        with pytest.raises(ValueError):
            qmultinom(-1, ())

    def test_exact_div(self):
        assert exact_div(qfact(3), qfact(3)) == QLaurent.one()
        assert exact_div(QLaurent.zero(), qint(2)) == QLaurent.zero()
        with pytest.raises(ExactDivisionError):
            exact_div(qint(3), qint(2))
        with pytest.raises(ExactDivisionError):
            exact_div(QLaurent({0: 3}), QLaurent({0: 2}))
        with pytest.raises(ZeroDivisionError):
            exact_div(qint(2), QLaurent.zero())

    def test_exact_div_random_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rand_qlaurent(rng)
            b = rand_qlaurent(rng)
            if not b:
                continue
            assert exact_div(a * b, b) == a


class TestTruncatedRSeries:
    def test_truncation_on_construction(self):
        t = TruncatedRSeries(4, {(6, 0): 1, (4, 0): 2, (0, 1): 3})
        assert t.terms == {(4, 0): 2, (0, 1): 3}

    def test_mul_drops_high_terms(self):
        # (1 + b v^2)(1 - b v^2 + b^2 v^4) == 1 once v^6 is out of range
        f = TruncatedRSeries(4, {(0, 0): 1, (2, 1): 1})
        g = TruncatedRSeries(4, {(0, 0): 1, (2, 1): -1, (4, 2): 1})
        assert f * g == TruncatedRSeries.one(4)

    def test_bound_mismatch(self):
        with pytest.raises(ValueError, match="truncation bound mismatch"):
            TruncatedRSeries.one(4) + TruncatedRSeries.one(6)
        with pytest.raises(ValueError, match="truncation bound mismatch"):
            TruncatedRSeries.one(4) * TruncatedRSeries.one(6)

    def test_retruncate(self):
        t = TruncatedRSeries(8, {(8, 0): 1, (2, 0): 1})
        assert t.retruncate(4).terms == {(2, 0): 1}
        with pytest.raises(ValueError, match="raise a truncation bound"):
            t.retruncate(10)

    def test_shift_a(self):
        t = TruncatedRSeries(8, {(0, 1): 1, (0, -1): 1})
        shifted = t.shift_a(2)
        assert shifted.terms == {(2, 1): 1, (-2, -1): 1}
        # shifting can push terms over the bound, where they are lost
        u = TruncatedRSeries(8, {(8, 1): 1})
        assert not u.shift_a(2)

    def test_substitute_a(self):
        t = TruncatedRSeries(8, {(2, -2): 1, (0, 0): 1})
        assert t.substitute_a(2) == QLaurent({-2: 1, 0: 1})

    def test_times_v_and_min_b(self):
        t = TruncatedRSeries(4, {(4, -2): 1, (0, 3): 2})
        assert t.times_v(2).terms == {(2, 3): 2}
        # a downward shift keeps the lowest b-exponent and the bound
        assert t.times_v(-4) == TruncatedRSeries(4, {(0, -2): 1, (-4, 3): 2})

    def test_ring_axioms_random(self):
        rng = random.Random(11)

        def rand_trs(bound):
            return TruncatedRSeries(
                bound,
                {
                    (rng.randint(0, bound + 2), rng.randint(-3, 3)): rng.randint(-4, 4)
                    for _ in range(rng.randint(0, 5))
                },
            )

        for _ in range(200):
            bound = rng.randint(2, 10)
            a, b, c = rand_trs(bound), rand_trs(bound), rand_trs(bound)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            # truncation is a quotient for nonnegative v-exponents
            assert (a * b) * c == a * (b * c)
