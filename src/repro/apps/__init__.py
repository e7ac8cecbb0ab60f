"""Example systems from the paper's experiments (Section 5): the fuzzy
logic controller, the answering machine and the Ethernet network
coprocessor.  See DESIGN.md section 3."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.answering_machine": (
        "AnsweringMachineModel", "build_answering_machine"),
    "repro.apps.convolution": ("ConvolutionModel", "build_convolution"),
    "repro.apps.ethernet": ("EthernetModel", "build_ethernet"),
    "repro.apps.flc": ("FlcModel", "build_flc", "reference_ctrl_output"),
})

__all__ = [
    "AnsweringMachineModel",
    "ConvolutionModel",
    "build_convolution",
    "EthernetModel",
    "FlcModel",
    "build_answering_machine",
    "build_ethernet",
    "build_flc",
    "reference_ctrl_output",
]
