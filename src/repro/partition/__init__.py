"""System partitioning (substrate for the paper's ref [1], the SpecSyn
partitioner).  See DESIGN.md section 3."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.partition.channels": ("default_bus_groups", "extract_channels"),
    "repro.partition.closeness": ("ClosenessModel", "cut_traffic"),
    "repro.partition.improve": ("ImprovementReport", "improve_partition"),
    "repro.partition.module": ("ModuleKind", "SystemModule"),
    "repro.partition.partitioner": ("Partition", "cluster_partition"),
})

__all__ = [
    "ClosenessModel",
    "ImprovementReport",
    "ModuleKind",
    "Partition",
    "SystemModule",
    "cluster_partition",
    "cut_traffic",
    "default_bus_groups",
    "improve_partition",
    "extract_channels",
]
