"""AReST: Advanced Revelation of Segment Routing Tunnels.

The paper's core contribution: post-processing of TNT-augmented
traceroute paths plus vendor fingerprints into flagged SR-MPLS segments.

- :mod:`repro.core.flags` -- the five detection flags and their signal
  strengths (Sec. 4).
- :mod:`repro.core.vendor_ranges` -- Table 1 as AReST consumes it.
- :mod:`repro.core.labels` -- label sequence / suffix matching.
- :mod:`repro.core.segments` -- detected-segment records.
- :mod:`repro.core.detector` -- the flag-raising engine as the
  paper-spec oracle (object path; its run rule is selectable for the
  ablation benches).
- :mod:`repro.core.columnar` -- the production detector at the paper's
  rule: one-trace and whole-batch entry points over a columnar batch
  representation (output byte-identical to the oracle's).
- :mod:`repro.core.classification` -- per-hop SR / MPLS / IP areas.
- :mod:`repro.core.interworking` -- full-SR vs. SR-LDP interworking
  tunnels, modes, and cloud sizes (Sec. 7.2).
- :mod:`repro.core.pipeline` -- per-AS end-to-end analysis.
"""

from repro.core.flags import Flag, SIGNAL_STRENGTH, cvr_false_positive_probability
from repro.core.detector import ArestDetector
from repro.core.columnar import ColumnarDetector, TraceBatch
from repro.core.segments import DetectedSegment
from repro.core.classification import HopArea, classify_hops
from repro.core.interworking import (
    InterworkingMode,
    TunnelComposition,
    analyze_tunnel_composition,
)
from repro.core.pipeline import ArestPipeline, AsAnalysis

__all__ = [
    "Flag",
    "SIGNAL_STRENGTH",
    "cvr_false_positive_probability",
    "ArestDetector",
    "ColumnarDetector",
    "TraceBatch",
    "DetectedSegment",
    "HopArea",
    "classify_hops",
    "InterworkingMode",
    "TunnelComposition",
    "analyze_tunnel_composition",
    "ArestPipeline",
    "AsAnalysis",
]
