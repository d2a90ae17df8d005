"""repro — reproduction of "An Approach for Detecting and Distinguishing
Errors versus Attacks in Sensor Networks" (Basile, Gupta, Kalbarczyk,
Iyer — DSN 2006).

Public API tour
---------------
* :class:`~repro.config.PipelineConfig` — Table 1 parameters.
* :class:`~repro.core.pipeline.DetectionPipeline` — the Fig. 1 loop:
  feed it observation windows, query alarms / diagnoses / ``M_C``.
* :mod:`repro.traces` — the synthetic Great Duck Island workload.
* :mod:`repro.faults` — the §3.3 fault and attack models plus injectors.
* :mod:`repro.sensornet` — the mote / radio / collector substrate.
* :mod:`repro.hmm` — a classic discrete-HMM library (baselines, tests).
* :mod:`repro.baselines` — detectors the paper positions itself against.
* :mod:`repro.experiments` — one callable per paper table and figure.

Quickstart
----------
>>> from repro import DetectionPipeline, PipelineConfig
>>> from repro.traces import generate_gdi_trace_columnar
>>> trace = generate_gdi_trace_columnar()
>>> pipeline = DetectionPipeline(PipelineConfig())
>>> pipeline.process_trace_fast(trace)   # one-hour windows, Table 1 defaults
744
>>> model = pipeline.correct_model()   # the paper's M_C (Fig. 7)
"""

from .config import PipelineConfig
from .core.classification import AnomalyCategory, AnomalyType, Diagnosis
from .core.pipeline import DetectionPipeline, WindowResult

__version__ = "1.0.0"

__all__ = [
    "AnomalyCategory",
    "AnomalyType",
    "DetectionPipeline",
    "Diagnosis",
    "PipelineConfig",
    "WindowResult",
    "__version__",
]
