import random

import pytest

from supercong import arith, quadform
from supercong.arith import is_prime, primes_in
from supercong.quadform import cornacchia, normalize, represent

THEOREM_D_SET = (2, 5, 6, 7, 9, 10, 13, 18, 22, 25, 29, 37, 58)


def test_cornacchia_examples():
    assert cornacchia(7, 11) == (2, 1)
    assert cornacchia(2, 11) == (3, 1)
    assert cornacchia(7, 3) is None
    assert cornacchia(1, 5) == (2, 1)


def test_cornacchia_validation():
    with pytest.raises(ValueError):
        cornacchia(7, 10)  # not prime
    with pytest.raises(ValueError):
        cornacchia(0, 11)
    with pytest.raises(ValueError):
        cornacchia(22, 11)  # p divides d


def test_cornacchia_tests_primality_once(monkeypatch):
    """p is tested once: PrimeCtx validates it on the Euclidean path."""
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(quadform, "is_prime", counted)
    assert cornacchia(7, 10007) == represent(7, 10007)
    assert calls == [10007]
    with pytest.raises(ValueError):
        cornacchia(7, 10)


def test_cornacchia_takes_the_callers_ctx(monkeypatch):
    """Given a PrimeCtx, cornacchia tests no primality and answers as it
    does for the int, on the Euclidean path and where d >= p alike."""
    calls = []
    ctxs = {p: arith.PrimeCtx(p) for p in (5, 7, 10007)}

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(quadform, "is_prime", counted)
    want = {(d, p): cornacchia(d, p) for d in (1, 2, 5, 6, 7, 9)
            for p in ctxs if d % p}
    calls.clear()
    assert {(d, p): cornacchia(d, ctxs[p]) for d, p in want} == want
    assert calls == []


def test_cornacchia_soundness_random():
    rng = random.Random(31)
    ps = primes_in(5, 3000)
    for _ in range(300):
        p = rng.choice(ps)
        d = rng.randrange(1, 80)
        if d % p == 0:
            continue
        rep = cornacchia(d, p)
        if rep is not None:
            x, y = rep
            assert x * x + d * y * y == p
            assert x >= 0 and y >= 0


def test_cornacchia_agrees_with_exhaustive_search():
    for p in primes_in(5, 600):
        for d in THEOREM_D_SET:
            if d % p == 0:
                continue
            rep = cornacchia(d, p)
            oracle = represent(d, p)
            if oracle is None:
                assert rep is None, (d, p)
            else:
                assert rep == oracle, (d, p)


def test_genus_split_d7():
    for p in primes_in(5, 1000):
        if p == 7:
            continue
        assert (represent(7, p) is not None) == (p % 7 in (1, 2, 4)), p


def test_represent_forms():
    assert represent(1, 0) == (0, 0)
    assert represent(7, 3) is None
    assert represent(3, 11, a=2) == (2, 1)  # 2*4 + 3 = 11
    assert represent(13, 14) == (1, 1)      # 2p = x^2 + 13 y^2 at p = 7
    with pytest.raises(ValueError):
        represent(0, 5)


def test_scaled_representation():
    assert represent(7, 44) == (4, 2)  # 4p = u^2 + 7 v^2 at p = 11
    assert represent(7, 20) is None


def test_normalize_examples():
    assert normalize(cornacchia(2, 11), "one_mod_4") == (-3, 1)
    assert normalize(cornacchia(9, 13), "one_mod_3") == (-2, 1)
    assert normalize(cornacchia(2, 17), "one_mod_4") == (-3, 2)
    assert normalize((-3, -1)) == (3, 1)


def test_normalize_unsatisfiable():
    with pytest.raises(ValueError):
        normalize((3, 1), "one_mod_3")
    with pytest.raises(ValueError):
        normalize((2, 3), "one_mod_4")
    with pytest.raises(ValueError):
        normalize((3, 1), "sign_of_the_times")


def test_normalize_preserves_value():
    for p in primes_in(5, 200):
        rep = cornacchia(2, p)
        if rep is None:
            continue
        x, y = normalize(rep, "one_mod_4")
        assert x % 4 == 1
        assert x * x + 2 * y * y == p
