"""recurlab: numerical recurrence classification for trajectories.

Classifies sampled trajectories as almost periodic / asymptotically almost
periodic / remotely almost periodic / remotely tau-periodic or stationary,
and checks the matching structure results (omega-limit fiber counts,
contraction bounds, root-branch recurrence for time-varying polynomials)
at desk scale.
"""

from ._kernels import backend_name
from .signal import (
    SampledSignal,
    Window,
    translate,
    sup_distance,
    read_signal,
    read_signal_csv,
    write_signal,
    write_signal_csv,
)
from .recurrence import (
    TauSpec,
    Thresholds,
    TranslationSet,
    HullSample,
    RecurrenceReport,
    translation_set_global,
    translation_set_remote,
    remotely_tau_periodic_test,
    remotely_stationary_test,
    omega_limit_sample,
    equi_ap_test,
    minimality_test,
    classify,
)

__version__ = "0.1.0"

__all__ = [
    "SampledSignal",
    "Window",
    "translate",
    "sup_distance",
    "read_signal",
    "read_signal_csv",
    "write_signal",
    "write_signal_csv",
    "TauSpec",
    "Thresholds",
    "TranslationSet",
    "HullSample",
    "RecurrenceReport",
    "translation_set_global",
    "translation_set_remote",
    "remotely_tau_periodic_test",
    "remotely_stationary_test",
    "omega_limit_sample",
    "equi_ap_test",
    "minimality_test",
    "classify",
    "backend_name",
    "__version__",
]
