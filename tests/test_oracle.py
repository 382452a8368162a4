import random

from wcr.oracle import (config_digest, differential_suite,
                        random_integer_config, random_minnum_instance,
                        random_minsum_1d_instance, random_vh_instance)


def test_digest_is_canonical():
    a = {"x": 1, "y": [2, 3]}
    b = {"y": [2, 3], "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"x": 1, "y": [3, 2]})
    assert len(config_digest(a)) == 16


def test_generators_respect_bounds():
    rng = random.Random(0)
    for _ in range(50):
        cfg = random_integer_config(rng, 4, 3, 5, "manhattan")
        assert cfg.width == 4 and cfg.height == 3 and cfg.n == 5
        mm = random_minnum_instance(rng, max_grid=5, max_n=7)
        assert mm.width <= 5 and mm.height <= 5 and mm.n <= 7
        ms = random_minsum_1d_instance(rng)
        assert len(ms.points) <= 6
        assert random_minsum_1d_instance(rng, max_grid=3).length <= 3
        assert all(0 <= p <= ms.length for p in ms.points)
        assert 2 * ms.radius in (2, 3, 4)
        vh = random_vh_instance(rng)
        assert vh.config.width <= 4 and vh.max_move in (0, 1, 2)
        assert all(1 <= v <= vh.config.width for v in vh.v_lines)


def test_suites_agree_and_are_reproducible():
    for problem, count in (("minnum", 40), ("vh", 40), ("minsum", 10),
                           ("minmax", 5)):
        first = differential_suite(problem, seed=3, count=count)
        assert all(r.agree for r in first), problem
        again = differential_suite(problem, seed=3, count=count)
        assert first == again
        other = differential_suite(problem, seed=4, count=count)
        assert {r.digest for r in other} != {r.digest for r in first}


def test_reports_sorted_by_digest():
    reports = differential_suite("minnum", seed=1, count=20)
    digests = [r.digest for r in reports]
    assert digests == sorted(digests)
