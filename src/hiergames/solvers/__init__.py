from . import sg, smoothing, vr_spp
from .sg import SgConfig
from .smoothing import ArspbrConfig, SmoothingParams, arspbr_run, zo_gradient_batch, zsol_solve
from .vr_spp import SampleSchedule, VrSppConfig, inner_resolvent

__all__ = [
    "ArspbrConfig",
    "SampleSchedule",
    "SgConfig",
    "SmoothingParams",
    "VrSppConfig",
    "arspbr_run",
    "inner_resolvent",
    "sg",
    "smoothing",
    "vr_spp",
    "zo_gradient_batch",
    "zsol_solve",
]
