"""Objectives: acceptance semantics, duality, encodings."""
import pytest

from omegagames.benchgen import SplitMix64
from omegagames.objectives import (
    Lasso,
    Parity,
    Rabin,
    Streett,
    accepts_lasso,
    buchi_parity,
    cobuchi_parity,
    complement,
)


def test_parity_min_even():
    par = Parity((0, 1, 2))
    assert par.accepts_inf({0, 1}) is True
    assert par.accepts_inf({1, 2}) is False
    assert par.accepts_inf({2}) is True


def test_parity_priorities_bounded_by_count():
    with pytest.raises(ValueError):
        Parity((0, 3), count=3)
    assert Parity((0, 2)).count == 3


def test_buchi_and_cobuchi_encodings():
    buchi = buchi_parity({1}, 3)
    assert buchi.priorities == (1, 0, 1)
    assert buchi.accepts_inf({0, 1}) and not buchi.accepts_inf({0, 2})
    cob = cobuchi_parity({0, 1}, 3)
    assert cob.priorities == (2, 2, 1)
    assert cob.accepts_inf({0, 1}) and not cob.accepts_inf({0, 2})


def test_lasso_requires_cycle():
    with pytest.raises(ValueError):
        Lasso((0,), ())


def test_rabin_streett_duality_on_random_lassos():
    """Same pairs: a Rabin objective accepts exactly the lassos the Streett
    objective rejects (500 random four-state structures)."""
    rng = SplitMix64(0xD17A)
    n = 4
    for _ in range(500):
        pairs = []
        for _ in range(1 + rng.below(2)):
            q = {s for s in range(n) if rng.below(2)}
            r = {s for s in range(n) if rng.below(2)}
            pairs.append((q, r))
        rabin, streett = Rabin(pairs), Streett(pairs)
        stem = tuple(rng.below(n) for _ in range(rng.below(4)))
        cycle = tuple(rng.below(n) for _ in range(1 + rng.below(4)))
        lasso = Lasso(stem, cycle)
        assert accepts_lasso(rabin, lasso) == (not accepts_lasso(streett, lasso))


def test_complement_round_trips():
    par = Parity((0, 1, 2))
    comp = complement(par)
    for inf in ({0}, {1}, {0, 2}, {1, 2}):
        assert par.accepts_inf(inf) == (not comp.accepts_inf(inf))
    streett = Streett([({0}, {1})])
    assert isinstance(complement(streett), Rabin)
    assert isinstance(complement(complement(streett)), Streett)
    assert complement(complement(streett)).pairs == streett.pairs


def test_pair_objectives_count_their_pairs_in_words():
    pair = ({0}, {1})
    for cls, name in ((Streett, "Streett"), (Rabin, "Rabin")):
        assert str(cls([])) == f"{name} objective, 0 pairs"
        assert str(cls([pair])) == f"{name} objective, 1 pair"
        assert str(cls([pair, pair])) == f"{name} objective, 2 pairs"
