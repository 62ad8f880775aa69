"""Unit tests for repro.util.rng (deterministic seeding)."""

import numpy as np
import pytest

from repro.util import rng as rng_module
from repro.util.rng import derive_rng, replicate_rngs, spawn_seed


class TestSpawnSeed:
    def test_deterministic(self):
        assert spawn_seed("a", 1, 0.5) == spawn_seed("a", 1, 0.5)

    def test_component_sensitivity(self):
        assert spawn_seed("a", 1) != spawn_seed("a", 2)
        assert spawn_seed("a") != spawn_seed("b")

    def test_order_sensitivity(self):
        assert spawn_seed("a", "b") != spawn_seed("b", "a")

    def test_positive_63_bit(self):
        for args in [("x",), (1, 2, 3), (0.1, "y")]:
            seed = spawn_seed(*args)
            assert 0 <= seed < 2**63


class TestDeriveRng:
    def test_same_components_same_stream(self):
        a = derive_rng("exp", 4).random(5)
        b = derive_rng("exp", 4).random(5)
        assert (a == b).all()

    def test_different_components_different_stream(self):
        a = derive_rng("exp", 4).random(5)
        b = derive_rng("exp", 5).random(5)
        assert not (a == b).all()


class TestNumpyScalarComponents:
    def test_numpy_scalars_count_as_python_scalars(self):
        """Under NumPy 2 ``repr(np.float64(0.5))`` is ``'np.float64(0.5)'``;
        the seed must not see the difference."""
        assert spawn_seed("fig3", 2, np.float64(0.5)) == spawn_seed("fig3", 2, 0.5)
        assert spawn_seed(np.int64(4), np.str_("x")) == spawn_seed(4, "x")
        assert spawn_seed(np.bool_(True)) == spawn_seed(True)

    def test_python_scalar_seeds_are_unchanged(self):
        # recorded before numpy scalars were normalized
        assert spawn_seed("fig3", 2, 0.5) == 127529679865912490


#: seeds on the word boundaries SeedSequence splits at
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**64 - 1]


class TestBulkSeeding:
    def test_states_match_pcg64(self):
        """The one-pass SeedSequence and PCG64 seeding equals
        ``np.random.PCG64(seed).state`` on edge seeds and 10k random ones."""
        seeds = EDGE_SEEDS + np.random.default_rng(2024).integers(
            0, 2**63, size=10_000, dtype=np.int64
        ).tolist()
        words = zip(*rng_module._seed_words(seeds).tolist())
        got = [rng_module._pcg64_state(*w) for w in words]
        assert got == [np.random.PCG64(seed).state for seed in seeds]

    @pytest.mark.parametrize(
        "components",
        [(), ("fig3",), ("fig3", 2, "implicit", 0.5, 0.3), (np.float64(0.5), None)],
    )
    def test_replicates_are_derive_rng(self, components):
        """Each replicate starts where ``derive_rng(*components, r)`` does
        and draws the same doubles."""
        got = []
        for rng in replicate_rngs(*components, count=50):
            got.append(rng.bit_generator.state)
            got.append(rng.random(3).tolist())
        want = []
        for r in range(50):
            rng = derive_rng(*components, r)
            want.append(rng.bit_generator.state)
            want.append(rng.random(3).tolist())
        assert got == want

    def test_no_replicates(self):
        assert list(replicate_rngs("x", count=0)) == []

    def test_disagreement_with_numpy_raises(self, monkeypatch):
        """A NumPy that seeds differently fails before anything is drawn."""
        real = rng_module._pcg64_state

        def shifted(*words):
            state = real(*words)
            state["state"]["state"] ^= 1
            return state

        monkeypatch.setattr(rng_module, "_pcg64_state", shifted)
        with pytest.raises(RuntimeError, match="PCG64"):
            next(replicate_rngs("x", count=3))
