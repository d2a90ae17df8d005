"""Tests for the experiment harness (figures, tables, runner)."""

import numpy as np
import pytest

from repro.analysis.offline_clustering import initial_states_from_trace
from repro.core.classification import AnomalyType
from repro.experiments import (
    compute_initial_states,
    figure6,
    figure7,
    figure8,
    figure9,
    figure12,
    reference_states,
    run_pipeline,
    table1,
    table2_3,
    table4_5,
    table6,
    table7,
)


class TestRunner:
    def test_compute_initial_states_counts(self, clean_run):
        states = compute_initial_states(clean_run.trace, clean_run.config)
        assert states.shape == (6, 2)

    def test_initial_states_identical_for_both_trace_types(self, clean_run):
        columnar = compute_initial_states(clean_run.columnar, clean_run.config)
        records = compute_initial_states(clean_run.trace, clean_run.config)
        stacked = initial_states_from_trace(
            np.vstack([r.vector for r in clean_run.trace.records]),
            clean_run.config.n_initial_states,
        )
        assert columnar.tobytes() == records.tobytes() == stacked.tobytes()

    def test_run_pipeline_with_offline_states(self, clean_run):
        states = compute_initial_states(clean_run.trace, clean_run.config)
        pipeline = run_pipeline(
            clean_run.trace, clean_run.config, initial_states=states
        )
        assert pipeline.tracks.n_tracks == 0

    def test_reference_states_sorted_cold_to_hot(self):
        anchors = reference_states(n_days=5)
        temps = [float(a[0]) for a in anchors]
        assert temps == sorted(temps)
        assert len(anchors) >= 3

    def test_scenario_run_ground_truth(self, stuck_run):
        assert stuck_run.ground_truth == {6: "stuck_at"}
        assert len(stuck_run.windows()) > 0


class TestTable1:
    def test_values_match_paper(self):
        result = table1()
        assert result.value_of("K") == "10"
        assert result.value_of("M") == "6"
        assert result.value_of("w") == "12"
        assert result.value_of("alpha") == "0.10"
        assert result.value_of("beta") == "0.90"
        assert result.value_of("gamma") == "0.90"

    def test_render_contains_descriptions(self):
        text = table1().render()
        assert "Learning factor" in text
        assert "Table 1" in text

    def test_unknown_parameter_raises(self):
        with pytest.raises(KeyError):
            table1().value_of("zz")


class TestFigure6:
    def test_diurnal_profile(self, clean_run):
        result = figure6(clean_run, day_index=8)
        assert len(result.hours) >= 20
        low, high = result.temperature_range
        assert high - low > 10  # clear diurnal swing
        assert result.anticorrelation() < -0.9
        assert "Figure 6" in result.render()


class TestFigure7:
    def test_main_states_match_paper_shape(self, clean_run):
        result = figure7(clean_run)
        states = result.main_states
        assert 3 <= len(states) <= 6
        # Coldest state humid, hottest state dry (paper: (12,94)..(31,56)).
        assert states[0][1] > 80
        assert states[-1][1] < 70
        assert "Figure 7" in result.render()


class TestFigure8:
    def test_sensor6_humidity_collapses(self, faulty_run):
        result = figure8(faulty_run, start_day=7, n_days=6)
        # By the second week the drifting sensor reads far below healthy.
        assert result.final_humidity(6) < 40.0
        assert result.final_humidity(9) > 50.0

    def test_sensor7_reads_high(self, faulty_run):
        result = figure8(faulty_run, start_day=7, n_days=6)
        # Paper: "a value about 10% higher than the correct sensors".
        assert 1.05 < result.mean_ratio(7, reference_id=9) < 1.3

    def test_render(self, faulty_run):
        text = figure8(faulty_run).render()
        assert "sensor 6" in text and "sensor 9" in text


class TestFigure9:
    def test_matrices_exposed(self, faulty_run):
        result = figure9(faulty_run, sensor_id=6)
        assert result.b_co.matrix.size > 0
        assert result.b_ce.matrix.size > 0
        assert result.a_co.shape[0] == len(result.a_co_state_ids)
        assert "M_CO" in result.render() and "M_CE" in result.render()

    def test_untracked_sensor_raises(self, clean_run):
        with pytest.raises(RuntimeError):
            figure9(clean_run, sensor_id=0)


class TestFigure12:
    def test_rates_separate_faulty_from_healthy(self, faulty_run):
        result = figure12(faulty_run, faulty_sensor=6, healthy_sensor=9)
        assert result.faulty_rate > 0.5
        assert result.healthy_rate < 0.05
        assert "paper: ~1.5%" in result.render()


class TestTables2345:
    def test_table2_3_stuck_at(self, faulty_run):
        result = table2_3(faulty_run)
        assert result.diagnosis.anomaly_type is AnomalyType.STUCK_AT
        text = result.render()
        assert "Table 2" in text and "Table 3" in text
        assert "⊥" in text  # the fictitious state column is displayed

    def test_table2_b_co_diagonally_dominant(self, faulty_run):
        result = table2_3(faulty_run)
        matrix = result.b_co.matrix
        common = [s for s in result.b_co.state_ids if s in result.b_co.symbol_ids]
        for state_id in common:
            row = result.b_co.state_ids.index(state_id)
            col = result.b_co.symbol_ids.index(state_id)
            assert matrix[row, col] >= 0.5

    def test_table4_5_calibration(self, faulty_run):
        result = table4_5(faulty_run)
        assert result.diagnosis.anomaly_type is AnomalyType.CALIBRATION


class TestTables67:
    def test_table6_deletion(self, deletion_run):
        result = table6(deletion_run)
        assert result.anomaly_type is AnomalyType.DYNAMIC_DELETION
        assert result.compromised_sensors == tuple(
            deletion_run.campaign.malicious_sensor_ids()
        )
        assert "Table 6" in result.render()

    def test_table7_creation(self, creation_run):
        result = table7(creation_run)
        assert result.anomaly_type is AnomalyType.DYNAMIC_CREATION
        assert set(result.tracked_sensors) >= set(result.compromised_sensors)
