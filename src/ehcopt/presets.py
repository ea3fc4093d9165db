"""Shipped configuration data: devices, channel profiles, performance
ratios, and the bundled example application (packaged data).

Device budgets and channel parameters mirror the measured values for the
hardware the default configurations are modeled on.  Idle/max power draw
and the parameter-synthesis ranges are synthetic placeholders (plausible
for the device class, but not measured); they are only consumed by the
benchmark generator's power clamping, and every generated benchmark
records the ranges it was built from.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib.resources import files

from .model import (
    Channel,
    Device,
    DeviceRole,
    SystemModel,
    TaskGraph,
    make_system_model,
    task_graph_from_dict,
)
from .units import parse_optional, parse_quantity

E, H, C = DeviceRole.EDGE, DeviceRole.HUB, DeviceRole.CLOUD


# budgets per device; cloud has no energy cap. idle/max power are synthetic.
_DEVICE_SPECS = {
    "jetson-tx2": dict(
        role=E, name="Jetson TX2",
        memory="8GiB", storage="32GiB", energy="129.96Wh",
        idle="1.9W", max="15W",
    ),
    "odroid-xu4": dict(
        role=E, name="Odroid XU4",
        memory="2GiB", storage="16GiB", energy="129.96Wh",
        idle="2.0W", max="15W",
    ),
    "raspberry-pi-3b": dict(
        role=E, name="Raspberry Pi 3 Model B",
        memory="1GiB", storage="16GiB", energy="129.96Wh",
        idle="1.4W", max="6.7W",
    ),
    "mi-notebook-pro": dict(
        role=H, name="Mi Notebook Pro",
        memory="8GiB", storage="512GiB", energy="60.00Wh",
        idle="5.0W", max="65W",
    ),
    "hpe-dl580": dict(
        role=C, name="HPE ProLiant DL580 Gen10",
        memory="400GiB", storage="10TiB", energy=None,
        idle="105W", max="800W",
    ),
}

# device combinations: a different edge device per configuration
CONFIGURATIONS = {
    "C1": ("jetson-tx2", "mi-notebook-pro", "hpe-dl580"),
    "C2": ("odroid-xu4", "mi-notebook-pro", "hpe-dl580"),
    "C3": ("raspberry-pi-3b", "mi-notebook-pro", "hpe-dl580"),
}

# directional channel parameters: (bandwidth, tx energy, rx energy) per run
CHANNEL_PROFILES = {
    "run1": {
        (E, H): ("15Mbit/s", "1.0uJ/bit", "0.70uJ/bit"),
        (H, E): ("20Mbit/s", "1.0uJ/bit", "0.70uJ/bit"),
        (H, C): ("25Mbit/s", "2.5uJ/bit", "1.25uJ/bit"),
        (C, H): ("35Mbit/s", "2.5uJ/bit", "1.25uJ/bit"),
    },
    "run2": {
        (E, H): ("10Mbit/s", "1.0uJ/bit", "0.7uJ/bit"),
        (H, E): ("10Mbit/s", "1.0uJ/bit", "0.7uJ/bit"),
        (H, C): ("0.5Mbit/s", "6.5uJ/bit", "4.5uJ/bit"),
        (C, H): ("1.5Mbit/s", "6.5uJ/bit", "4.5uJ/bit"),
    },
}

# measured speed of each device relative to the slowest (raspberry-pi-3b)
PERFORMANCE_RATIOS = {
    "raspberry-pi-3b": Fraction(1),
    "odroid-xu4": Fraction("2.99"),
    "jetson-tx2": Fraction("6.99"),
    "mi-notebook-pro": Fraction("50.77"),
    "hpe-dl580": Fraction("105.55"),
}

# default latency threshold applied when minimizing energy
DEFAULT_LATENCY_THRESHOLD = Fraction(8)  # seconds

# synthetic reference-device ranges for benchmark parameter synthesis
DEFAULT_PARAM_RANGES = {
    "reference_latency": ("50ms", "3.8s"),
    "reference_power": ("1.5W", "6.5W"),
    "memory_range": ("8MiB", "128MiB"),
    "storage_range": ("1MiB", "64MiB"),
    "data_range": ("0.05Mbit", "4Mbit"),
    "clamp_alpha": (Fraction(1, 1000), Fraction(5, 1000)),
}


def device(key: str) -> Device:
    spec = _DEVICE_SPECS[key]
    return Device(
        role=spec["role"],
        name=spec["name"],
        memory_budget=parse_quantity(spec["memory"], "memory"),
        storage_budget=parse_quantity(spec["storage"], "memory"),
        energy_budget=parse_optional(spec["energy"], "energy"),
        idle_power=parse_quantity(spec["idle"], "power"),
        max_power=parse_quantity(spec["max"], "power"),
    )


def channels(profile: str = "run1") -> list[Channel]:
    try:
        table = CHANNEL_PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown channel profile {profile!r}; expected one of {sorted(CHANNEL_PROFILES)}") from None
    return [
        Channel(
            src=k,
            dst=l,
            bandwidth=parse_quantity(bw, "bandwidth"),
            tx_energy=parse_quantity(tx, "energy_per_bit"),
            rx_energy=parse_quantity(rx, "energy_per_bit"),
        )
        for (k, l), (bw, tx, rx) in table.items()
    ]


def system_model(configuration: str = "C1", profile: str = "run1") -> SystemModel:
    try:
        keys = CONFIGURATIONS[configuration]
    except KeyError:
        raise KeyError(
            f"unknown configuration {configuration!r}; expected one of {sorted(CONFIGURATIONS)}"
        ) from None
    return make_system_model([device(k) for k in keys], channels(profile))


def performance_ratios(configuration: str = "C1") -> dict[DeviceRole, Fraction]:
    keys = CONFIGURATIONS[configuration]
    return {spec_role: PERFORMANCE_RATIOS[key] for key, spec_role in zip(keys, (E, H, C))}


def example_inspection_tfg() -> TaskGraph:
    """15-task aerial-inspection pipeline used as the bundled demo input,
    read from the packaged ``data/uav_inspection_15.json``.

    Camera capture is pinned to the edge device and the operator display
    to the hub; a preprocessing+line-detection chain and a tower-detection
    chain both feed the display.  Profiles are synthetic but sized like an
    image pipeline (hundreds of ms on the edge, an order of magnitude
    faster but hungrier on the hub and cloud).
    """
    text = (files(__package__) / "data" / "uav_inspection_15.json").read_text()
    return task_graph_from_dict(json.loads(text))
