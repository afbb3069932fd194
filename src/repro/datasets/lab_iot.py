"""Simulator for the paper's lab-collected IoT network capture.

The paper (section IV-B-1) collects 14,520 Wireshark flow records from a
small lab network containing a Blink camera, a smart plug, a motion sensor
and a tag manager, observes events such as motion detection, lamp activation
and tag-manager interactions, and injects attacks such as traffic flooding.
The raw capture is private, so this module simulates the same environment:

* the same device fleet with fixed LAN addresses,
* benign event types whose (protocol, destination, port) combinations follow
  fixed cloud-endpoint rules,
* attack event types -- traffic flooding, a port scan and an exploit of
  CVE-1999-0003 whose valid destination ports lie in 32771..34000 (the
  paper's running example for knowledge-guided validity).

Because the generating rules are explicit, the
:class:`~repro.knowledge.catalog.DomainCatalog` returned by
:func:`lab_iot_catalog` is exact ground truth: a record violates the
knowledge graph if and only if it violates the simulator's rules, which is
what makes the knowledge-guided discriminator evaluable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.datasets.base import DatasetBundle, clip_scalar
from repro.knowledge.catalog import AttackSpec, DeviceSpec, DomainCatalog, EventSpec
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table

__all__ = [
    "LAB_DEVICES",
    "LAB_DOMAINS",
    "LabIoTSimulator",
    "lab_iot_catalog",
    "lab_iot_schema",
    "load_lab_iot",
]

# --------------------------------------------------------------------------- #
# Static environment description
# --------------------------------------------------------------------------- #
LAB_DEVICES: list[DeviceSpec] = [
    DeviceSpec("blink_camera", "192.168.1.10", kind="camera",
               description="Blink security camera"),
    DeviceSpec("smart_plug", "192.168.1.11", kind="plug",
               description="Wi-Fi smart plug driving a lamp"),
    DeviceSpec("motion_sensor", "192.168.1.12", kind="sensor",
               description="PIR motion sensor"),
    DeviceSpec("tag_manager", "192.168.1.13", kind="hub",
               description="BLE tag manager gateway"),
    DeviceSpec("home_hub", "192.168.1.1", kind="router",
               description="Home router / controller"),
    DeviceSpec("attacker_box", "192.168.1.66", kind="attacker",
               description="Compromised host used to launch attacks"),
]

LAB_DOMAINS: dict[str, str] = {
    "blink.cloud.amazonaws.com": "34.201.12.5",
    "plug.vendor-cloud.com": "52.94.100.7",
    "sensor.iot-backend.net": "18.210.45.3",
    "tagmanager.service.io": "104.18.6.9",
    "pool.ntp.org": "129.6.15.28",
    "dns.google": "8.8.8.8",
}

_DEVICE_IP = {device.name: device.ip for device in LAB_DEVICES}

# Ports the attack events may target (kept as explicit categories so the
# destination-port column stays low-cardinality and the knowledge constraint
# is still range-based and meaningful).
_CVE_PORTS = tuple(range(32771, 32791)) + (33000, 33500, 34000)
_FLOOD_PORTS = (80, 443, 8883, 9999, 53, 123)
_SCAN_PORTS = (21, 22, 23, 25, 80, 110, 139, 443, 445, 3389, 8080)

_BENIGN_EVENTS: list[EventSpec] = [
    EventSpec(
        name="motion_detected",
        kind="benign",
        protocols=("TCP",),
        source_devices=("motion_sensor",),
        destination_domains=("sensor.iot-backend.net",),
        destination_ports=(443, 8883),
        source_port_range=(49152, 65535),
        description="Motion sensor reports a motion event to its cloud backend",
    ),
    EventSpec(
        name="camera_stream_upload",
        kind="benign",
        protocols=("TCP",),
        source_devices=("blink_camera",),
        destination_domains=("blink.cloud.amazonaws.com",),
        destination_ports=(443,),
        source_port_range=(49152, 65535),
        description="Blink camera uploads a motion clip",
    ),
    EventSpec(
        name="lamp_activation",
        kind="benign",
        protocols=("TCP",),
        source_devices=("home_hub",),
        destination_ips=("192.168.1.11",),
        destination_ports=(9999,),
        source_port_range=(49152, 65535),
        description="Hub sends a local turn-on command to the smart plug",
    ),
    EventSpec(
        name="plug_telemetry",
        kind="benign",
        protocols=("TCP",),
        source_devices=("smart_plug",),
        destination_domains=("plug.vendor-cloud.com",),
        destination_ports=(443, 8883),
        source_port_range=(49152, 65535),
        description="Smart plug reports power telemetry to the vendor cloud",
    ),
    EventSpec(
        name="tag_manager_sync",
        kind="benign",
        protocols=("TCP",),
        source_devices=("tag_manager",),
        destination_domains=("tagmanager.service.io",),
        destination_ports=(443, 8080),
        source_port_range=(49152, 65535),
        description="Tag manager synchronises tag inventory",
    ),
    EventSpec(
        name="ntp_sync",
        kind="benign",
        protocols=("UDP",),
        source_devices=("blink_camera", "smart_plug", "motion_sensor", "tag_manager"),
        destination_domains=("pool.ntp.org",),
        destination_ports=(123,),
        source_port_range=(49152, 65535),
        description="Periodic NTP clock synchronisation",
    ),
    EventSpec(
        name="dns_lookup",
        kind="benign",
        protocols=("UDP",),
        source_devices=("blink_camera", "smart_plug", "motion_sensor", "tag_manager", "home_hub"),
        destination_domains=("dns.google",),
        destination_ports=(53,),
        source_port_range=(49152, 65535),
        description="DNS resolution of a cloud endpoint",
    ),
]

_ATTACK_SPECS: list[AttackSpec] = [
    AttackSpec(
        name="traffic_flooding",
        cve="CVE-2018-17066",
        event=EventSpec(
            name="traffic_flooding",
            kind="attack",
            protocols=("UDP", "TCP"),
            source_devices=("attacker_box",),
            destination_ips=("192.168.1.10", "192.168.1.11", "192.168.1.12", "192.168.1.13"),
            destination_ports=_FLOOD_PORTS,
            source_port_range=(1024, 65535),
            description="Volumetric flood against a lab device",
        ),
        description="Traffic flooding attack simulated in the lab (paper section IV-B-1)",
    ),
    AttackSpec(
        name="port_scan",
        cve="CVE-1999-0454",
        event=EventSpec(
            name="port_scan",
            kind="attack",
            protocols=("TCP",),
            source_devices=("attacker_box",),
            destination_ips=("192.168.1.10", "192.168.1.11", "192.168.1.12", "192.168.1.13"),
            destination_ports=_SCAN_PORTS,
            source_port_range=(1024, 65535),
            description="Reconnaissance scan across well-known service ports",
        ),
        description="TCP port scan against lab devices",
    ),
    AttackSpec(
        name="cve_1999_0003",
        cve="CVE-1999-0003",
        event=EventSpec(
            name="cve_1999_0003",
            kind="attack",
            protocols=("TCP",),
            source_devices=("attacker_box",),
            destination_ips=("192.168.1.10", "192.168.1.13"),
            destination_ports=_CVE_PORTS,
            destination_port_range=(32771, 34000),
            source_port_range=(1024, 65535),
            description="ToolTalk RPC exploit; valid ports lie in 32771..34000",
        ),
        description="The paper's running example: CVE-1999-0003 with port range 32771-34000",
    ),
]

#: Relative frequency of each event type in the simulated capture.  Benign
#: traffic dominates heavily, mirroring the class imbalance the paper calls
#: out as a core difficulty.
_EVENT_WEIGHTS: dict[str, float] = {
    "dns_lookup": 0.22,
    "ntp_sync": 0.14,
    "motion_detected": 0.16,
    "camera_stream_upload": 0.12,
    "plug_telemetry": 0.12,
    "tag_manager_sync": 0.08,
    "lamp_activation": 0.06,
    "traffic_flooding": 0.055,
    "port_scan": 0.035,
    "cve_1999_0003": 0.01,
}

#: Per-event continuous feature profiles: (packets mean, bytes-per-packet
#: mean, duration-ms log-mean).  Drawn from log-normal distributions.
_EVENT_PROFILES: dict[str, tuple[float, float, float]] = {
    "dns_lookup": (2.0, 80.0, 2.5),
    "ntp_sync": (2.0, 90.0, 2.0),
    "motion_detected": (12.0, 220.0, 5.0),
    "camera_stream_upload": (420.0, 950.0, 8.3),
    "plug_telemetry": (9.0, 180.0, 4.4),
    "tag_manager_sync": (25.0, 300.0, 5.6),
    "lamp_activation": (6.0, 120.0, 3.0),
    "traffic_flooding": (2500.0, 600.0, 8.8),
    "port_scan": (1.0, 60.0, 1.2),
    "cve_1999_0003": (18.0, 260.0, 5.2),
}

#: Mapping from event type to the NIDS label used in the evaluation.
EVENT_LABELS: dict[str, str] = {
    **{spec.name: "normal" for spec in _BENIGN_EVENTS},
    "traffic_flooding": "flooding",
    "port_scan": "port_scan",
    "cve_1999_0003": "exploit",
}

_ALL_DST_PORTS = tuple(sorted({
    port
    for spec in _BENIGN_EVENTS + [attack.event for attack in _ATTACK_SPECS]
    for port in spec.destination_ports
}))

_ALL_DST_IPS = tuple(sorted({
    ip
    for spec in _BENIGN_EVENTS + [attack.event for attack in _ATTACK_SPECS]
    for ip in spec.destination_ips
} | set(LAB_DOMAINS.values())))

_ALL_SRC_IPS = tuple(sorted(_DEVICE_IP.values()))


def lab_iot_catalog() -> DomainCatalog:
    """The ground-truth domain catalog of the simulated lab network."""
    return DomainCatalog(
        name="lab_iot",
        devices=list(LAB_DEVICES),
        events=list(_BENIGN_EVENTS),
        attacks=list(_ATTACK_SPECS),
        domains=dict(LAB_DOMAINS),
    )


def lab_iot_schema() -> TableSchema:
    """Schema of the simulated capture (mirrors the paper's collected fields)."""
    event_names = tuple(_EVENT_WEIGHTS)
    labels = tuple(dict.fromkeys(EVENT_LABELS.values()))
    return TableSchema(
        [
            ColumnSpec("event_type", "categorical", categories=event_names),
            ColumnSpec("protocol", "categorical", categories=("TCP", "UDP")),
            ColumnSpec("src_ip", "categorical", categories=_ALL_SRC_IPS),
            ColumnSpec("dst_ip", "categorical", categories=_ALL_DST_IPS),
            ColumnSpec("dst_port", "categorical", categories=_ALL_DST_PORTS),
            ColumnSpec("src_port", "continuous", minimum=1024, maximum=65535),
            ColumnSpec("packet_count", "continuous", minimum=1, maximum=100000),
            ColumnSpec("byte_count", "continuous", minimum=40, maximum=5.0e7),
            ColumnSpec("duration_ms", "continuous", minimum=0.1, maximum=600000),
            ColumnSpec("label", "categorical", categories=labels, sensitive=True),
        ]
    )


@dataclass
class LabIoTSimulator:
    """Generates flow records for the simulated lab network.

    Parameters
    ----------
    seed:
        Seed of the internal random generator; the default capture
        (``load_lab_iot()``) is fully reproducible.
    """

    seed: int = 7

    def __post_init__(self) -> None:
        self.catalog = lab_iot_catalog()
        self.schema = lab_iot_schema()
        self._rng = np.random.default_rng(self.seed)
        self._plans = {
            spec.name: _event_plan(spec, self.catalog) for spec in self.catalog.all_events()
        }

    # ------------------------------------------------------------------ #
    def generate(self, n_records: int = 14_520) -> Table:
        """Generate ``n_records`` flow records following the event mix."""
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        names = list(_EVENT_WEIGHTS)
        weights = np.asarray([_EVENT_WEIGHTS[name] for name in names])
        weights = weights / weights.sum()
        counts = self._rng.multinomial(n_records, weights)
        records: list[dict] = []
        for name, count in zip(names, counts):
            for _ in range(int(count)):
                records.append(self._generate_event(name))
        self._rng.shuffle(records)
        return Table.from_records(self.schema, records)

    def generate_event_batch(self, event_name: str, count: int) -> Table:
        """Generate ``count`` records of a single event type (used by tests)."""
        if event_name not in self._plans:
            raise KeyError(f"unknown event {event_name!r}")
        records = [self._generate_event(event_name) for _ in range(count)]
        return Table.from_records(self.schema, records)

    # ------------------------------------------------------------------ #
    def _generate_event(self, event_name: str) -> dict:
        rng = self._rng
        plan = self._plans[event_name]
        protocol = plan.protocols[rng.integers(0, len(plan.protocols))]
        src_ip = plan.src_ips[rng.integers(0, len(plan.src_ips))]
        dst_ip = plan.dst_ips[rng.integers(0, len(plan.dst_ips))]
        dst_port = plan.dst_ports[rng.integers(0, len(plan.dst_ports))]
        src_port = float(rng.integers(plan.src_port_low, plan.src_port_high + 1))

        packet_count = clip_scalar(rng.lognormal(plan.log_packets, 0.6), 1, 100_000)
        byte_count = clip_scalar(
            packet_count * rng.lognormal(plan.log_bytes_per_packet, 0.4), 40, 5.0e7
        )
        duration_ms = clip_scalar(rng.lognormal(plan.log_duration, 0.8), 0.1, 600_000)

        return {
            "event_type": event_name,
            "protocol": protocol,
            "src_ip": src_ip,
            "dst_ip": dst_ip,
            "dst_port": dst_port,
            "src_port": src_port,
            "packet_count": packet_count,
            "byte_count": byte_count,
            "duration_ms": duration_ms,
            "label": plan.label,
        }


class _EventPlan(NamedTuple):
    """The per-event constants of one simulated record, resolved once."""

    protocols: tuple[str, ...]
    src_ips: tuple[str, ...]
    dst_ips: tuple[str, ...]
    dst_ports: tuple[int, ...]
    src_port_low: int
    src_port_high: int
    log_packets: float
    log_bytes_per_packet: float
    log_duration: float
    label: str


def _event_plan(spec: EventSpec, catalog: DomainCatalog) -> _EventPlan:
    low, high = spec.source_port_range if spec.source_port_range else (1024, 65535)
    packets_mean, bytes_per_packet, log_duration = _EVENT_PROFILES[spec.name]
    return _EventPlan(
        protocols=tuple(spec.protocols),
        src_ips=tuple(_DEVICE_IP[device] for device in spec.source_devices),
        dst_ips=tuple(catalog.destination_ips_for(spec.name)),
        dst_ports=tuple(int(port) for port in spec.destination_ports),
        src_port_low=low,
        src_port_high=high,
        log_packets=np.log(packets_mean),
        log_bytes_per_packet=np.log(bytes_per_packet),
        log_duration=log_duration,
        label=EVENT_LABELS[spec.name],
    )


def load_lab_iot(n_records: int = 14_520, seed: int = 7) -> DatasetBundle:
    """Load the simulated lab IoT capture as a :class:`DatasetBundle`.

    The default size matches the 14,520 records reported in the paper.
    """
    simulator = LabIoTSimulator(seed=seed)
    table = simulator.generate(n_records=n_records)
    return DatasetBundle(
        name="lab_iot",
        table=table,
        schema=simulator.schema,
        catalog=simulator.catalog,
        label_column="label",
        condition_columns=["event_type", "protocol", "label"],
        description=(
            "Simulated stand-in for the paper's private lab capture: same device "
            "fleet, event types, attack types and record count; generating rules "
            "double as knowledge-graph ground truth."
        ),
    )
