import random

import pytest

from supercong import arith, quadform
from supercong.arith import is_prime, primes_in
from supercong.quadform import cornacchia, represent


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
    """Every d in 1..100 at p = 2, 3 and every prime below 600: the
    Euclidean path, the direct rule for p <= 3, and every d >= p."""
    for p in primes_in(2, 599):
        for d in range(1, 101):
            if d % p == 0:
                continue
            oracle = represent(d, p)
            if d == 1 and oracle is not None:
                oracle = tuple(sorted(oracle, reverse=True))
            assert cornacchia(d, p) == oracle, (d, p)


def test_sum_of_two_squares_comes_larger_first():
    """cornacchia(1, p) returns x > y >= 1 with x^2 + y^2 = p for every
    prime p = 1 mod 4 below 10**5, from an int and from a PrimeCtx: the
    chain seeded with the root in (p/2, p) first drops below sqrt(p) at
    the larger of x and y (Brillhart, Math. Comp. 26, 1972), so nothing
    swaps them."""
    for p in primes_in(5, 99999):
        if p % 4 == 1:
            for arg in (p, arith.PrimeCtx(p)):
                x, y = cornacchia(1, arg)
                assert x > y >= 1 and x * x + y * y == p, p


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


def normalize(rep: tuple[int, int],
              convention: str = "nonneg") -> tuple[int, int]:
    """Sign-adjust x of a representation (x, y) to the named convention;
    y comes back nonnegative.

    Conventions: "nonneg" (x >= 0), "one_mod_4" (x = 1 mod 4, requires x
    odd), "one_mod_3" (x = 1 mod 3, requires 3 not dividing x).
    """
    x, y = abs(rep[0]), abs(rep[1])
    if convention == "nonneg":
        pass
    elif convention == "one_mod_4":
        if x % 2 == 0:
            raise ValueError(
                f"x = {rep[0]} is even; no sign gives x = 1 mod 4")
        if x % 4 != 1:
            x = -x
    elif convention == "one_mod_3":
        if x % 3 == 0:
            raise ValueError(
                f"3 divides x = {rep[0]}; no sign gives x = 1 mod 3")
        if x % 3 != 1:
            x = -x
    else:
        raise ValueError(f"unknown normalization convention {convention!r}")
    return x, y


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
