"""Tests for the flat state layout and the FedAvg mean over its rows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.dp import DPFedAvgConfig, DPFedAvgMechanism
from repro.federated.parameters import (
    StateCodec,
    copy_state,
    state_subtract,
    weighted_average,
)


def make_state(seed: int = 0, scale: float = 1.0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "layers.0.weight": scale * rng.normal(size=(4, 3)),
        "layers.0.bias": scale * rng.normal(size=(3,)),
        "layers.1.weight": scale * rng.normal(size=(3, 2)),
    }


def encode_rows(states: list[dict]) -> tuple[StateCodec, np.ndarray]:
    """The states as one ``(len(states), dim)`` matrix, like a round's results."""
    codec = StateCodec(states[0])
    return codec, np.stack([codec.encode(state) for state in states])


class TestBasicArithmetic:
    def test_copy_is_deep(self):
        state = make_state()
        cloned = copy_state(state)
        cloned["layers.0.bias"][0] = 999.0
        assert state["layers.0.bias"][0] != 999.0

    def test_add_subtract_roundtrip(self):
        a, b = make_state(1), make_state(2)
        delta = state_subtract(a, b)
        for key in a:
            np.testing.assert_allclose(delta[key] + b[key], a[key])

    def test_incompatible_keys_rejected(self):
        a = make_state()
        b = {key: value for key, value in make_state().items() if "bias" not in key}
        with pytest.raises(ValueError):
            state_subtract(a, b)

    def test_incompatible_shapes_rejected(self):
        a = make_state()
        b = copy_state(a)
        b["layers.0.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            state_subtract(a, b)


class TestNorms:
    """The codec's flat norm and the DP clip built on it."""

    @staticmethod
    def _clip(state: dict, max_norm: float) -> tuple[np.ndarray, float]:
        codec, rows = encode_rows([state])
        mechanism = DPFedAvgMechanism(DPFedAvgConfig(clip_norm=max_norm))
        mechanism.clip_rows(rows, codec)
        return rows[0], mechanism._clip_events[0]

    def test_l2_norm_matches_flat_vector(self):
        state = make_state(4)
        codec = StateCodec(state)
        flat = codec.encode(state)
        assert codec.l2_norm(flat) == pytest.approx(float(np.linalg.norm(flat)))
        per_tensor = sum(float((state[key] ** 2).sum()) for key in codec.keys)
        assert codec.l2_norm(flat) == float(np.sqrt(per_tensor))

    def test_clip_noop_when_under_limit(self):
        state = make_state(5, scale=1e-3)
        clipped, norm = self._clip(state, max_norm=100.0)
        assert norm < 100.0
        np.testing.assert_array_equal(clipped, StateCodec(state).encode(state))

    def test_clip_scales_to_limit(self):
        state = make_state(6, scale=10.0)
        clipped, norm = self._clip(state, max_norm=1.0)
        assert norm > 1.0
        assert StateCodec(state).l2_norm(clipped) == pytest.approx(1.0, rel=1e-9)

    def test_clip_rejects_nonpositive_norm(self):
        with pytest.raises(ValueError):
            DPFedAvgConfig(clip_norm=0.0)


class TestWeightedAverage:
    def test_uniform_average(self):
        a, b = make_state(1), make_state(2)
        codec, rows = encode_rows([a, b])
        average = codec.decode(weighted_average(rows))
        for key in a:
            np.testing.assert_allclose(average[key], 0.5 * (a[key] + b[key]))

    def test_weighting_by_examples(self):
        a, b = make_state(1), make_state(2)
        codec, rows = encode_rows([a, b])
        average = codec.decode(weighted_average(rows, weights=[3.0, 1.0]))
        for key in a:
            np.testing.assert_allclose(average[key], 0.75 * a[key] + 0.25 * b[key])

    def test_rejects_empty_and_bad_weights(self):
        _, rows = encode_rows([make_state(), make_state()])
        with pytest.raises(ValueError):
            weighted_average(rows[:0])
        with pytest.raises(ValueError):
            weighted_average(rows[0])
        with pytest.raises(ValueError):
            weighted_average(rows[:1], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_average(rows, weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            weighted_average(rows, weights=[-1.0, 2.0])

    def test_average_of_identical_states_is_identity(self):
        state = make_state(7)
        codec, rows = encode_rows([state, copy_state(state), copy_state(state)])
        average = codec.decode(weighted_average(rows))
        for key in state:
            np.testing.assert_allclose(average[key], state[key])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_average_is_rounded_back_to_the_transport_dtype(self, dtype):
        states = [
            {key: value.astype(dtype) for key, value in make_state(seed).items()}
            for seed in range(3)
        ]
        _, rows = encode_rows(states)
        weights = [1.0, 2.0, 4.0]
        average = weighted_average(rows, weights)
        assert average.dtype == dtype
        expected = np.average(rows.astype(np.float64), axis=0, weights=weights)
        np.testing.assert_array_equal(average, expected.astype(dtype))


class TestFlattenUnflatten:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        state = make_state(seed)
        codec = StateCodec(state)
        restored = codec.decode(codec.encode(state))
        assert set(restored) == set(state)
        for key in state:
            np.testing.assert_array_equal(restored[key], state[key])

    def test_layout_is_sorted_and_stable(self):
        state = make_state()
        codec = StateCodec(state)
        assert list(codec.keys) == sorted(state)
        reordered = {key: state[key] for key in reversed(list(state))}
        np.testing.assert_array_equal(StateCodec(reordered).encode(reordered), codec.encode(state))

    def test_wrong_vector_length_rejected(self):
        codec = StateCodec(make_state())
        flat = codec.encode(make_state())
        with pytest.raises(ValueError):
            codec.decode(flat[:-1])
        with pytest.raises(ValueError):
            codec.decode(np.concatenate([flat, [0.0]]))

    @given(
        weights=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=5)
    )
    @settings(max_examples=25, deadline=None)
    def test_weighted_average_is_convex_combination(self, weights):
        """Every coordinate of the average lies within the per-state extremes."""
        _, rows = encode_rows([make_state(seed) for seed in range(len(weights))])
        average = weighted_average(rows, weights)
        assert np.all(average <= rows.max(axis=0) + 1e-12)
        assert np.all(average >= rows.min(axis=0) - 1e-12)


class TestStateCodec:
    def test_roundtrip_preserves_values_shapes_dtypes(self):
        state = make_state(4)
        state["half"] = np.array([0.5, 1.5], dtype=np.float32)
        state["counter"] = np.array([3], dtype=np.int64)
        codec = StateCodec(state)
        restored = codec.decode(codec.encode(state))
        assert set(restored) == set(state)
        for key in state:
            assert restored[key].shape == state[key].shape
            np.testing.assert_allclose(
                np.asarray(restored[key], dtype=np.float64),
                np.asarray(state[key], dtype=np.float64),
            )
        # Floating dtypes are restored; integer entries stay float64 so that
        # decoding an *aggregate* (e.g. the mean of counters) cannot truncate.
        assert restored["half"].dtype == np.float32
        assert restored["layers.0.weight"].dtype == np.float64
        assert restored["counter"].dtype == np.float64

    def test_decoded_aggregate_of_int_entries_is_not_truncated(self):
        state_a = make_state(1)
        state_a["counter"] = np.array([1], dtype=np.int64)
        state_b = make_state(2)
        state_b["counter"] = np.array([2], dtype=np.int64)
        codec, rows = encode_rows([state_a, state_b])
        average = codec.decode(weighted_average(rows))
        assert average["counter"][0] == pytest.approx(1.5)

    def test_dim_counts_every_parameter(self):
        state = make_state()
        codec = StateCodec(state)
        assert codec.dim == sum(value.size for value in state.values())

    def test_incompatible_states_rejected(self):
        codec = StateCodec(make_state())
        with pytest.raises(ValueError):
            codec.encode({"other": np.zeros(3)})
        bad = make_state()
        bad["layers.0.bias"] = np.zeros((5,))
        with pytest.raises(ValueError):
            codec.encode(bad)
        with pytest.raises(ValueError):
            codec.decode(np.zeros(codec.dim + 1))

    @given(
        weights=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=5)
    )
    @settings(max_examples=25, deadline=None)
    def test_weighted_average_matches_per_tensor_loop(self, weights):
        """The stacked np.average equals the seed's per-tensor accumulation."""
        states = [make_state(seed) for seed in range(len(weights))]
        codec, rows = encode_rows(states)
        stacked = codec.decode(weighted_average(rows, weights))
        normalised = np.asarray(weights) / np.sum(weights)
        for key in states[0]:
            expected = sum(w * state[key] for w, state in zip(normalised, states))
            np.testing.assert_allclose(stacked[key], expected, rtol=1e-12, atol=1e-12)


class TestArenaFlatFastPath:
    """Single-copy encode/decode against arena-consolidated networks."""

    def _network(self, seed: int = 0):
        from repro.neural.layers import BatchNorm, Dense, ReLU
        from repro.neural.network import Sequential

        rng = np.random.default_rng(seed)
        network = Sequential(
            [Dense(4, 6, rng=rng), BatchNorm(6), ReLU(), Dense(6, 2, rng=rng)]
        )
        network.consolidate()
        return network

    def test_arena_state_is_detected_as_one_flat_view(self):
        network = self._network()
        codec = StateCodec(network.state_dict())
        flat = codec._flat_view(network.state_dict())
        assert flat is not None
        assert flat.base is network.arena.data or flat is network.arena.data
        assert np.array_equal(flat, network.arena.data)

    def test_plain_state_takes_the_per_key_path(self):
        codec = StateCodec(make_state())
        assert codec._flat_view(make_state()) is None

    def test_encode_matches_per_key_encoding(self):
        network = self._network(seed=1)
        state = network.state_dict()
        codec = StateCodec(state)
        fast = codec.encode(state)
        per_key = codec.encode({key: value.copy() for key, value in state.items()})
        assert np.array_equal(fast, per_key)

    def test_decode_into_fills_live_arrays_in_place(self):
        network = self._network(seed=2)
        state = network.state_dict()
        codec = StateCodec(state)
        vector = np.arange(codec.dim, dtype=np.float64)
        result = codec.decode_into(vector, state)
        assert result is state
        assert network.arena.intact
        assert np.array_equal(network.arena.data, vector)
        # Round trip: encode reads back exactly what decode_into wrote.
        assert np.array_equal(codec.encode(network.state_dict()), vector)

    def test_decode_into_per_key_path_matches_decode(self):
        template = make_state(seed=3)
        codec = StateCodec(template)
        vector = np.random.default_rng(4).normal(size=codec.dim)
        target = make_state(seed=5)
        codec.decode_into(vector, target)
        expected = codec.decode(vector)
        for key, value in expected.items():
            assert np.array_equal(target[key], value)

    def test_decode_into_rejects_wrong_length(self):
        codec = StateCodec(make_state())
        with pytest.raises(ValueError):
            codec.decode_into(np.zeros(codec.dim + 1), make_state())

    def test_detached_views_fall_back_to_per_key(self):
        import pickle

        network = self._network(seed=6)
        clone = pickle.loads(pickle.dumps(network))
        codec = StateCodec(network.state_dict())
        state = clone.state_dict()
        assert codec._flat_view(state) is None  # unpickled views are standalone
        assert np.array_equal(codec.encode(state), codec.encode(network.state_dict()))

    def test_scrambled_key_order_is_not_mistaken_for_flat(self):
        flat = np.arange(10, dtype=np.float64)
        state = {"b": flat[4:10].reshape(2, 3), "a": flat[0:4].reshape(4,)}
        codec = StateCodec(state)
        assert codec._flat_view(state) is not None  # laid out in sorted order
        swapped = {"a": flat[6:10].reshape(4,), "b": flat[0:6].reshape(2, 3)}
        assert codec._flat_view(swapped) is None

    def test_gapped_views_are_rejected(self):
        flat = np.arange(12, dtype=np.float64)
        state = {"a": flat[0:4], "b": flat[6:12].reshape(2, 3)}
        codec = StateCodec(state)
        assert codec._flat_view(state) is None
