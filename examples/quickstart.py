#!/usr/bin/env python3
"""Quickstart: detect and diagnose a stuck sensor in two dozen lines.

Generates a week of synthetic Great Duck Island data with one sensor
stuck at (15 °C, 1 %RH), runs the paper's detection pipeline, and prints
the clean environment model plus the per-sensor diagnosis.

Run:  python examples/quickstart.py
"""

from repro import DetectionPipeline, PipelineConfig
from repro.faults import ActivationSchedule, CampaignSpec, PacketDropper, StuckAtFault
from repro.traces import GDITraceConfig, build_environment, generate_gdi_trace_columnar


def main() -> None:
    # 1. A corruption plan: sensor 6 sticks at (15, 1) after day 2, and
    #    its degrading radio drops about half of its packets.
    campaign = CampaignSpec(name="quickstart")
    campaign.plant(
        PacketDropper(inner=StuckAtFault(value=(15.0, 1.0)), drop_probability=0.5),
        sensor_ids=[6],
        schedule=ActivationSchedule(start_minutes=2 * 24 * 60.0),
    )

    # 2. Generate one synthetic GDI week and corrupt it.
    trace_config = GDITraceConfig(n_days=10)
    injector = campaign.build_injector(build_environment(trace_config))
    trace = generate_gdi_trace_columnar(trace_config, corruption=injector)
    print(f"trace: {len(trace)} readings from sensors {trace.sensor_ids.tolist()}")

    # 3. Run the paper's pipeline (Table 1 parameters by default) over
    #    one-hour windows of the trace.
    pipeline = DetectionPipeline(PipelineConfig())
    pipeline.process_trace_fast(trace)

    # 4. The clean environment model M_C (step 5 of the methodology).
    model = pipeline.correct_model()
    print("\nM_C states (temp, humidity):")
    for state_id in model.state_ids:
        print(
            f"  {model.label(state_id)}  "
            f"visited {100 * model.visit_fraction(state_id):.0f}% of windows"
        )

    # 5. Diagnoses: who misbehaved, and was it an error or an attack?
    print("\ndiagnoses:")
    diagnoses = pipeline.diagnose_all()
    if not diagnoses:
        print("  (no anomalies)")
    for sensor_id, diagnosis in diagnoses.items():
        print(
            f"  sensor {sensor_id}: {diagnosis.category.value} / "
            f"{diagnosis.anomaly_type.value} "
            f"(confidence {diagnosis.confidence:.2f})"
        )
    system = pipeline.system_diagnosis()
    print(f"\nsystem-level verdict: {system.anomaly_type.value}")


if __name__ == "__main__":
    main()
