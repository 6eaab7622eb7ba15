import random

import numpy as np
import pytest

from netfit.seeds import Draws, coin_limit

BOUNDS = (1, 2, 3, 2**31, 2**32 - 1, 2**32)


def assert_same_bits(got, expected):
    assert type(got) is type(expected)
    if isinstance(got, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**63 - 1])
    def test_mixed_sequence_matches_numpy(self, seed):
        # more than one raw-word block, with integers leaving a kept half
        # word across coin words and across block refills
        chooser = random.Random(seed)
        draws, rng = Draws(seed), np.random.default_rng(seed)
        for _ in range(3000):
            if chooser.random() < 0.4:
                assert_same_bits((draws.word() >> 11) * 2.0**-53, rng.random())
            else:
                n = chooser.choice(BOUNDS + (chooser.randrange(1, 100),
                                             chooser.randrange(1, 2**32 + 1)))
                assert_same_bits(draws.integers(n), int(rng.integers(n)))

    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.3, 0.5, 1 - 2**-53, 1.0])
    def test_coin_is_one_word_per_item(self, p):
        # the row builders' coin, word() < coin_limit(p), keeps the items
        # that numpy's random() < p keeps, one word each
        chooser = random.Random(11)
        draws, rng = Draws(4), np.random.default_rng(4)
        word, limit = draws.word, coin_limit(p)
        for _ in range(300):
            items = list(range(chooser.choice((0, 1, 5, 40, 300, 1000))))
            assert [x for x in items if word() < limit] == [x for x in items if rng.random() < p]
            assert draws.integers(7) == int(rng.integers(7))  # leaves a kept half word

    def test_coin_is_strict_at_its_own_value(self):
        # p equal to the coin's own value does not fall, as random() < p
        p = np.random.default_rng(9).random()
        assert not Draws(9).word() < coin_limit(p)
        assert Draws(9).word() < coin_limit(np.nextafter(p, 1.0))

    @pytest.mark.parametrize("p", [0.0, 1e-300, 2**-53, 0.3, 0.5, 1 - 2**-53, 1.0])
    def test_coin_limit_is_random_below_p(self, p):
        # the words at and next to the limit, and both ends of the word range
        limit = coin_limit(p)
        assert limit % 2**11 == 0 and 0 <= limit <= 2**64
        for word in {0, limit - 1, limit, limit + 2**11 - 1, limit + 2**11, 2**64 - 1}:
            if 0 <= word < 2**64:
                assert (word < limit) == ((word >> 11) * 2.0**-53 < p), word

    def test_integers_one_draws_nothing(self):
        draws, rng = Draws(5), np.random.default_rng(5)
        assert [draws.integers(1) for _ in range(10)] == [0] * 10
        assert draws.integers(2**32) == int(rng.integers(2**32))

    def test_rejection_path(self):
        # n just above 2**31 rejects about half of all 32-bit words
        draws, rng = Draws(3), np.random.default_rng(3)
        for _ in range(2000):
            assert draws.integers(2**31 + 1) == int(rng.integers(2**31 + 1))

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**64])
    def test_bounds_out_of_range_refused(self, n):
        with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
            Draws(0).integers(n)


class TestChoice:
    """``Draws.choice(d, k)`` is ``Generator.choice(d, size=k, replace=False)``, call for call."""

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**63 - 1])
    def test_interleaved_stream_matches_numpy(self, seed):
        # a forest tree's order first: a bootstrap, then one choice per node;
        # then any d and k, with integers and word between them, across refills
        chooser = random.Random(seed)
        draws, rng = Draws(seed), np.random.default_rng(seed)
        n = chooser.randrange(1, 500)
        assert [draws.integers(n) for _ in range(n)] == rng.integers(n, size=n).tolist()
        for _ in range(400):
            d = chooser.choice((1, 2, 6, 6, 50, 10_000, chooser.randrange(1, 10_001)))
            k = chooser.choice((0, 1, min(d, 64), chooser.randrange(0, min(d, 300) + 1)))
            assert draws.choice(d, k) == rng.choice(d, size=k, replace=False).tolist(), (d, k)
            if chooser.random() < 0.5:
                m = chooser.randrange(1, 1000)
                assert draws.integers(m) == int(rng.integers(m))
            if chooser.random() < 0.3:
                assert_same_bits((draws.word() >> 11) * 2.0**-53, rng.random())

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 64, 1000])
    def test_every_k_of_one_population(self, d):
        # k close to d makes Floyd's draws collide often, so j replaces them
        draws, rng = Draws(d), np.random.default_rng(d)
        for k in range(d + 1) if d <= 64 else (0, 1, 2, d // 2, d - 2, d - 1, d):
            got = draws.choice(d, k)
            assert got == rng.choice(d, size=k, replace=False).tolist(), (d, k)
            assert sorted(set(got)) == sorted(got) and all(0 <= x < d for x in got)

    def test_largest_population_whole_sample(self):
        draws, rng = Draws(8), np.random.default_rng(8)
        assert draws.choice(10_000, 10_000) == rng.choice(10_000, size=10_000,
                                                          replace=False).tolist()
        assert draws.integers(10) == int(rng.integers(10))

    @pytest.mark.parametrize("d,k", [(10_001, 1), (10_001, 0), (2**32, 2), (3, 4), (0, 1),
                                     (5, -1)])
    def test_out_of_range_refused(self, d, k):
        with pytest.raises(ValueError, match="0 <= k <= d <= 10000"):
            Draws(0).choice(d, k)
