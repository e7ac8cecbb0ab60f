"""Abstract communication channels and channel groups (Section 1-2 of
the paper).  See DESIGN.md section 3."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.channels.channel": ("Channel",),
    "repro.channels.group": ("ChannelGroup",),
    "repro.channels.rates": (
        "ChannelRates", "GroupRateModel", "average_rate", "peak_rate"),
})

__all__ = [
    "Channel",
    "ChannelGroup",
    "ChannelRates",
    "GroupRateModel",
    "average_rate",
    "peak_rate",
]
