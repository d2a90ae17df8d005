"""Unit tests for repro.core.online_hmm (the §3.2 estimator)."""

import numpy as np
import pytest

from repro.core.online_hmm import EmissionMatrix, OnlineHMM
from repro.core.states import BOTTOM_STATE_ID


class TestUpdateRules:
    def test_identity_initialisation(self):
        hmm = OnlineHMM()
        hmm.observe(0, 0)
        emission = hmm.emission_matrix()
        assert emission.state_ids == (0,)
        assert np.allclose(emission.matrix, [[1.0]])

    def test_transition_updated_only_on_state_change(self):
        hmm = OnlineHMM(transition_innovation=0.5)
        hmm.observe(0, 0)
        hmm.observe(0, 0)  # same state: A row untouched
        transition, ids = hmm.transition_matrix()
        assert np.allclose(transition, [[1.0]])
        hmm.observe(1, 1)  # 0 -> 1: row 0 moves toward 1
        transition, ids = hmm.transition_matrix()
        row0 = transition[ids.index(0)]
        assert row0[ids.index(0)] == pytest.approx(0.5)
        assert row0[ids.index(1)] == pytest.approx(0.5)

    def test_paper_update_formula_on_emission(self):
        hmm = OnlineHMM(emission_innovation=0.1)
        hmm.observe(0, 0)  # row 0: delta at symbol 0 (stays 1.0)
        hmm.observe(0, 1)  # row 0: 0.9 * (1, 0) + 0.1 * (0, 1)
        emission = hmm.emission_matrix()
        row = emission.row_of(0)
        sym = {s: k for k, s in enumerate(emission.symbol_ids)}
        assert row[sym[0]] == pytest.approx(0.9)
        assert row[sym[1]] == pytest.approx(0.1)

    def test_rows_remain_stochastic_under_updates(self, rng):
        hmm = OnlineHMM(transition_innovation=0.3, emission_innovation=0.3)
        for _ in range(500):
            hmm.observe(int(rng.integers(0, 5)), int(rng.integers(0, 7)))
        assert hmm.is_row_stochastic()

    def test_repeated_symbol_converges_to_delta(self):
        hmm = OnlineHMM(emission_innovation=0.1)
        hmm.observe(0, 0)
        for _ in range(200):
            hmm.observe(0, 3)
        row = hmm.emission_matrix().row_of(0)
        sym = hmm.emission_matrix().symbol_ids
        assert row[sym.index(3)] > 0.99

    def test_alternating_symbols_split_row(self):
        hmm = OnlineHMM(emission_innovation=0.1)
        for _ in range(200):
            hmm.observe(0, 0)
            hmm.observe(0, 1)
        row = hmm.emission_matrix().row_of(0)
        # Long-run the row splits roughly 0.47/0.53 (EMA of alternation).
        assert 0.3 < row[0] < 0.7
        assert 0.3 < row[1] < 0.7

    def test_rejects_bad_innovation(self):
        with pytest.raises(ValueError):
            OnlineHMM(transition_innovation=0.0)
        with pytest.raises(ValueError):
            OnlineHMM(emission_innovation=1.0)


class TestOpenAlphabet:
    def test_states_and_symbols_grow_on_demand(self):
        hmm = OnlineHMM()
        hmm.observe(3, 7)
        hmm.observe(5, BOTTOM_STATE_ID)
        assert set(hmm.state_ids) == {3, 5}
        assert set(hmm.symbol_ids) == {3, 5, 7, BOTTOM_STATE_ID}

    def test_new_state_row_is_delta_on_own_symbol(self):
        hmm = OnlineHMM()
        hmm.observe(0, 0)
        hmm.observe(1, 1)
        # State 2 exists implicitly once observed.
        hmm.observe(2, 0)
        emission = hmm.emission_matrix()
        row = emission.row_of(2)
        sym = {s: k for k, s in enumerate(emission.symbol_ids)}
        # One update with innovation 0.1 from delta(2): 0.9 at 2, 0.1 at 0.
        assert row[sym[2]] == pytest.approx(0.9)
        assert row[sym[0]] == pytest.approx(0.1)

    def test_visit_counts(self):
        hmm = OnlineHMM()
        hmm.observe(0, 0)
        hmm.observe(0, 1)
        hmm.observe(1, 1)
        assert hmm.state_visits(0) == 2
        assert hmm.state_visits(1) == 1
        assert hmm.state_visits(42) == 0
        assert hmm.n_updates == 3


class PadGrowthHMM(OnlineHMM):
    """Reference: the estimator growing B one ``np.pad`` at a time."""

    def _ensure_state(self, state_id):
        if state_id in self._state_index:
            return self._state_index[state_id]
        index = len(self._state_index)
        self._state_index[state_id] = index
        grown = np.zeros((index + 1, index + 1))
        grown[:index, :index] = self._transition
        grown[index, index] = 1.0
        self._transition = grown
        self._emission = np.pad(self._emission, ((0, 1), (0, 0)))
        self._state_visits.setdefault(state_id, 0)
        symbol_index = self._ensure_symbol(state_id)
        self._emission[index, :] = 0.0
        self._emission[index, symbol_index] = 1.0
        return index

    def _ensure_symbol(self, symbol_id):
        if symbol_id in self._symbol_index:
            return self._symbol_index[symbol_id]
        index = len(self._symbol_index)
        self._symbol_index[symbol_id] = index
        self._emission = np.pad(self._emission, ((0, 0), (0, 1)))
        self._symbol_visits.setdefault(symbol_id, 0)
        return index


def random_stream(seed: int, length: int = 400):
    """(state, symbol) pairs mixing new states, new symbols and ⊥."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(length):
        state = int(rng.integers(0, 12))
        roll = rng.random()
        if roll < 0.25:
            symbol = BOTTOM_STATE_ID
        elif roll < 0.5:
            symbol = int(rng.integers(12, 30))  # never a state id
        else:
            symbol = int(rng.integers(0, 12))
        pairs.append((state, symbol))
    return pairs


class TestGrowth:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_dict_bit_equal_to_pad_growth(self, seed):
        hmm, reference = OnlineHMM(), PadGrowthHMM()
        for state, symbol in random_stream(seed):
            hmm.observe(state, symbol)
            reference.observe(state, symbol)
        assert len(hmm.symbol_ids) > len(hmm.state_ids) > 1
        assert hmm.state_dict() == reference.state_dict()

    def test_state_dict_round_trip_restores_growth(self):
        # Restore early, so the restored estimator keeps growing.
        stream = random_stream(3)
        hmm = OnlineHMM()
        for state, symbol in stream[:10]:
            hmm.observe(state, symbol)
        restored = OnlineHMM.from_state_dict(hmm.state_dict())
        assert restored.state_dict() == hmm.state_dict()
        n_symbols = len(hmm.symbol_ids)
        for state, symbol in stream[10:]:
            hmm.observe(state, symbol)
            restored.observe(state, symbol)
        assert len(hmm.symbol_ids) > n_symbols
        assert restored.state_dict() == hmm.state_dict()


class TestObserveRun:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_runs_bit_equal_to_repeated_observe(self, seed):
        # Runs of 1..40 equal pairs over a growing alphabet: the run
        # form must leave A, B and every counter bit-identical.
        import json

        rng = np.random.default_rng(seed)
        hmm, reference = OnlineHMM(), OnlineHMM()
        for state, symbol in random_stream(seed, length=60):
            count = int(rng.integers(1, 41))
            hmm.observe_run(state, symbol, count)
            for _ in range(count):
                reference.observe(state, symbol)
        assert json.dumps(hmm.state_dict()) == json.dumps(
            reference.state_dict()
        )

    def test_empty_run_is_a_no_op(self):
        hmm = OnlineHMM()
        hmm.observe_run(3, 3, 0)
        assert hmm.n_updates == 0 and hmm.state_ids == []


class TestSnapshots:
    def test_min_visits_filters_states(self):
        hmm = OnlineHMM()
        for _ in range(10):
            hmm.observe(0, 0)
        hmm.observe(1, 1)
        emission = hmm.emission_matrix(min_state_visits=5)
        assert emission.state_ids == (0,)

    def test_filtered_snapshot_rows_renormalised(self):
        hmm = OnlineHMM(emission_innovation=0.5)
        hmm.observe(0, 0)
        hmm.observe(0, 1)
        # Drop symbol 1 via min_symbol_visits; row must renormalise.
        emission = hmm.emission_matrix(min_symbol_visits=2)
        assert np.allclose(emission.matrix.sum(axis=1), 1.0)

    def test_empty_snapshot(self):
        emission = OnlineHMM().emission_matrix()
        assert emission.matrix.size == 0

    def test_without_bottom_removes_and_renormalises(self):
        hmm = OnlineHMM(emission_innovation=0.5)
        hmm.observe(0, 0)
        hmm.observe(0, BOTTOM_STATE_ID)
        emission = hmm.emission_without_bottom()
        assert BOTTOM_STATE_ID not in emission.symbol_ids
        assert np.allclose(emission.matrix.sum(axis=1), 1.0)

    def test_dominant_symbols(self):
        hmm = OnlineHMM(emission_innovation=0.5)
        hmm.observe(0, 0)
        hmm.observe(1, 0)
        hmm.observe(1, 0)
        dominant = hmm.emission_matrix().dominant_symbols()
        assert dominant[1] == 0


class TestDenoise:
    def matrix(self) -> EmissionMatrix:
        return EmissionMatrix(
            matrix=np.array([[0.75, 0.15, 0.10], [0.05, 0.90, 0.05]]),
            state_ids=(0, 1),
            symbol_ids=(0, 1, 2),
        )

    def test_floors_small_entries_and_renormalises(self):
        denoised = self.matrix().denoised(0.2)
        assert np.allclose(denoised.matrix[0], [1.0, 0.0, 0.0])
        assert np.allclose(denoised.matrix[1], [0.0, 1.0, 0.0])

    def test_preserves_large_splits(self):
        emission = EmissionMatrix(
            matrix=np.array([[0.35, 0.65]]),
            state_ids=(0,),
            symbol_ids=(0, 1),
        )
        denoised = emission.denoised(0.2)
        assert np.allclose(denoised.matrix, [[0.35, 0.65]])

    def test_all_small_row_keeps_maximum(self):
        emission = EmissionMatrix(
            matrix=np.array([[0.15, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.25]]),
            state_ids=(0,),
            symbol_ids=tuple(range(8)),
        )
        denoised = emission.denoised(0.5)
        assert np.allclose(denoised.matrix[0, -1], 1.0)

    def test_zero_floor_is_identity(self):
        emission = self.matrix()
        assert emission.denoised(0.0) is emission

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            self.matrix().denoised(1.0)
