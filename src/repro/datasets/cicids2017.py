"""Synthetic generator for the CIC-IDS-2017 flow-based intrusion dataset.

CIC-IDS-2017 (Sharafaldin et al.) records five days of benign and attack
traffic as ~2.8 million bidirectional flows with about 80 CICFlowMeter
features.  The raw CSVs cannot be downloaded offline, so this module
generates a stand-in that preserves what the KiNETGAN experiments exercise:

* a flow schema with the destination port, protocol, per-direction packet /
  byte counts, duration, inter-arrival statistics and TCP-flag counts,
* the published attack families (DoS Hulk, PortScan, DDoS, brute-force
  against FTP/SSH, slow DoS variants, botnet and web attacks) with benign
  traffic dominating heavily,
* attack-to-port/protocol rules (FTP-Patator targets 21/tcp, SSH-Patator
  22/tcp, the web DoS family 80/tcp, ...) that the knowledge graph encodes
  and the knowledge-guided discriminator enforces,
* per-class continuous profiles so downstream detectors can separate the
  classes, mirroring the near-perfect accuracies reported on the real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import DatasetBundle, clip_scalar, mixture
from repro.knowledge.catalog import AttackSpec, DomainCatalog, EventSpec
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table

__all__ = [
    "CICIDS_CLASSES",
    "CICIDS_FIELD_MAP",
    "CICIDS2017Generator",
    "cicids2017_catalog",
    "cicids2017_schema",
    "load_cicids2017",
]

#: The traffic class plays the event-type role; the KG constrains which
#: destination ports and protocols each class may use.
CICIDS_FIELD_MAP: dict[str, str] = {
    "event_type": "traffic_class",
    "protocol": "protocol",
    "source_ip": "src_ip",          # not in the reduced flow schema
    "destination_ip": "dst_ip",     # not in the reduced flow schema
    "source_port": "src_port",
    "destination_port": "dst_port",
    "label": "traffic_class",
}

#: Class mix, roughly following the published flow counts (benign ~80 %).
CICIDS_CLASSES: dict[str, float] = {
    "BENIGN": 0.803,
    "DoS Hulk": 0.082,
    "PortScan": 0.056,
    "DDoS": 0.045,
    "DoS GoldenEye": 0.0036,
    "FTP-Patator": 0.0028,
    "SSH-Patator": 0.0021,
    "DoS slowloris": 0.0020,
    "DoS Slowhttptest": 0.0019,
    "Bot": 0.0007,
    "Web Attack": 0.0008,
    "Infiltration": 0.0001,
}

_PROTOCOLS = ("TCP", "UDP")

#: Ports benign traffic uses, with rough weights.
_BENIGN_PORTS: dict[int, float] = {
    443: 0.42, 80: 0.28, 53: 0.18, 22: 0.02, 21: 0.01, 8080: 0.03, 3389: 0.02,
    123: 0.02, 465: 0.02,
}

#: Attack class -> (allowed destination ports, allowed protocols).
_ATTACK_RULES: dict[str, tuple[tuple[int, ...], tuple[str, ...]]] = {
    "DoS Hulk": ((80,), ("TCP",)),
    "DoS GoldenEye": ((80,), ("TCP",)),
    "DoS slowloris": ((80,), ("TCP",)),
    "DoS Slowhttptest": ((80,), ("TCP",)),
    "DDoS": ((80,), ("TCP",)),
    "FTP-Patator": ((21,), ("TCP",)),
    "SSH-Patator": ((22,), ("TCP",)),
    "PortScan": ((21, 22, 23, 25, 53, 80, 110, 139, 443, 445, 3389, 8080), ("TCP",)),
    "Bot": ((8080, 80, 443), ("TCP",)),
    "Web Attack": ((80,), ("TCP",)),
    "Infiltration": ((444, 80, 443), ("TCP",)),
}

#: Per-class continuous profiles:
#: (duration log-mean [us], fwd packets mean, bwd packets mean,
#:  fwd bytes/packet mean, flow rate factor, syn flag share)
_CLASS_PROFILES: dict[str, tuple[float, float, float, float, float, float]] = {
    "BENIGN": (13.0, 9.0, 10.0, 250.0, 1.0, 0.1),
    "DoS Hulk": (11.0, 6.0, 4.0, 60.0, 40.0, 0.4),
    "PortScan": (8.0, 2.0, 1.0, 20.0, 5.0, 0.9),
    "DDoS": (12.5, 5.0, 4.0, 500.0, 60.0, 0.5),
    "DoS GoldenEye": (12.0, 7.0, 5.0, 90.0, 25.0, 0.4),
    "FTP-Patator": (12.2, 8.0, 8.0, 30.0, 3.0, 0.2),
    "SSH-Patator": (12.6, 12.0, 12.0, 80.0, 3.0, 0.2),
    "DoS slowloris": (15.5, 5.0, 3.0, 40.0, 0.2, 0.3),
    "DoS Slowhttptest": (15.2, 5.0, 3.0, 45.0, 0.2, 0.3),
    "Bot": (12.8, 6.0, 6.0, 120.0, 1.5, 0.2),
    "Web Attack": (13.2, 9.0, 9.0, 300.0, 2.0, 0.2),
    "Infiltration": (13.5, 10.0, 12.0, 350.0, 1.2, 0.2),
}

#: The benign destination ports and the CDF of their mixture.
_BENIGN_PORT_CHOICE = mixture(_BENIGN_PORTS)

#: Per class, the log-means of the forward and backward packet sizes.
_LOG_PACKET_SIZES = {
    label: (np.log(max(fwd_size, 1.0)), np.log(max(fwd_size * 1.4, 1.0)))
    for label, (_, _, _, fwd_size, _, _) in _CLASS_PROFILES.items()
}

_ALL_DST_PORTS = tuple(sorted(
    set(_BENIGN_PORTS)
    | {port for ports, _ in _ATTACK_RULES.values() for port in ports}
))


def cicids2017_schema() -> TableSchema:
    """Reduced CICFlowMeter schema (the columns most CICIDS papers keep)."""
    return TableSchema(
        [
            ColumnSpec("dst_port", "categorical", categories=_ALL_DST_PORTS),
            ColumnSpec("protocol", "categorical", categories=_PROTOCOLS),
            ColumnSpec("flow_duration", "continuous", minimum=1.0, maximum=1.2e8),
            ColumnSpec("total_fwd_packets", "continuous", minimum=1.0, maximum=20_000.0),
            ColumnSpec("total_bwd_packets", "continuous", minimum=0.0, maximum=20_000.0),
            ColumnSpec("fwd_packet_length_mean", "continuous", minimum=0.0, maximum=3000.0),
            ColumnSpec("bwd_packet_length_mean", "continuous", minimum=0.0, maximum=3000.0),
            ColumnSpec("flow_bytes_per_s", "continuous", minimum=0.0, maximum=1.0e8),
            ColumnSpec("flow_packets_per_s", "continuous", minimum=0.0, maximum=1.0e6),
            ColumnSpec("flow_iat_mean", "continuous", minimum=0.0, maximum=1.0e8),
            ColumnSpec("fwd_iat_mean", "continuous", minimum=0.0, maximum=1.0e8),
            ColumnSpec("syn_flag_count", "continuous", minimum=0.0, maximum=100.0),
            ColumnSpec("ack_flag_count", "continuous", minimum=0.0, maximum=20_000.0),
            ColumnSpec("rst_flag_count", "continuous", minimum=0.0, maximum=100.0),
            ColumnSpec("average_packet_size", "continuous", minimum=0.0, maximum=3000.0),
            ColumnSpec("active_mean", "continuous", minimum=0.0, maximum=1.0e8),
            ColumnSpec("idle_mean", "continuous", minimum=0.0, maximum=1.0e8),
            ColumnSpec(
                "traffic_class", "categorical", categories=tuple(CICIDS_CLASSES), sensitive=True
            ),
        ]
    )


def cicids2017_catalog() -> DomainCatalog:
    """Domain catalog with the attack-to-port/protocol rules of CIC-IDS-2017."""
    benign = EventSpec(
        name="BENIGN",
        kind="benign",
        protocols=_PROTOCOLS,
        destination_ports=tuple(sorted(_BENIGN_PORTS)),
        description="Benign enterprise traffic mix of the Monday--Friday captures",
    )
    attacks = [
        AttackSpec(
            name=name,
            cve="",
            event=EventSpec(
                name=name,
                kind="attack",
                protocols=protocols,
                destination_ports=ports,
                description=f"CIC-IDS-2017 attack class {name!r}",
            ),
            description=f"CIC-IDS-2017 attack class {name!r}",
        )
        for name, (ports, protocols) in _ATTACK_RULES.items()
    ]
    return DomainCatalog(
        name="cicids2017",
        devices=[],
        events=[benign],
        attacks=attacks,
        domains={},
        field_map=dict(CICIDS_FIELD_MAP),
    )


@dataclass
class CICIDS2017Generator:
    """Generates CIC-IDS-2017-like flow records."""

    seed: int = 31

    def __post_init__(self) -> None:
        self.schema = cicids2017_schema()
        self.catalog = cicids2017_catalog()
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    def generate(self, n_records: int = 20_000) -> Table:
        """Generate ``n_records`` flows following the published class mix."""
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        classes = list(CICIDS_CLASSES)
        weights = np.asarray([CICIDS_CLASSES[c] for c in classes])
        counts = np.maximum(self._rng.multinomial(n_records, weights / weights.sum()), 2)
        records: list[dict] = []
        for label, count in zip(classes, counts):
            for _ in range(int(count)):
                records.append(self._generate_record(label))
        self._rng.shuffle(records)
        return Table.from_records(self.schema, records[:n_records])

    # ------------------------------------------------------------------ #
    def _generate_record(self, label: str) -> dict:
        rng = self._rng
        if label == "BENIGN":
            ports, port_cdf = _BENIGN_PORT_CHOICE
            dst_port = int(ports[port_cdf.searchsorted(rng.random(), side="right")])
            protocol = "UDP" if dst_port in (53, 123) else "TCP"
        else:
            ports, protocols = _ATTACK_RULES[label]
            dst_port = int(ports[rng.integers(0, len(ports))])
            protocol = protocols[rng.integers(0, len(protocols))]

        (log_duration, fwd_mean, bwd_mean, _, rate_factor, syn_share) = _CLASS_PROFILES[label]
        log_fwd_size, log_bwd_size = _LOG_PACKET_SIZES[label]
        duration = clip_scalar(rng.lognormal(log_duration, 1.0), 1.0, 1.2e8)
        fwd_packets = clip_scalar(rng.poisson(fwd_mean) + 1, 1, 20_000)
        bwd_packets = clip_scalar(rng.poisson(bwd_mean), 0, 20_000)
        fwd_length = clip_scalar(rng.lognormal(log_fwd_size, 0.5), 0, 3000)
        bwd_length = clip_scalar(rng.lognormal(log_bwd_size, 0.6), 0, 3000)
        total_packets = fwd_packets + bwd_packets
        total_bytes = fwd_packets * fwd_length + bwd_packets * bwd_length
        seconds = max(duration / 1.0e6, 1e-6)
        flow_bytes_per_s = clip_scalar(total_bytes / seconds * rate_factor, 0, 1.0e8)
        flow_packets_per_s = clip_scalar(total_packets / seconds * rate_factor, 0, 1.0e6)
        iat_mean = clip_scalar(duration / max(total_packets, 1.0), 0, 1.0e8)
        syn_flags = clip_scalar(rng.binomial(int(fwd_packets), syn_share), 0, 100)

        return {
            "dst_port": dst_port,
            "protocol": protocol,
            "flow_duration": duration,
            "total_fwd_packets": fwd_packets,
            "total_bwd_packets": bwd_packets,
            "fwd_packet_length_mean": fwd_length,
            "bwd_packet_length_mean": bwd_length if bwd_packets > 0 else 0.0,
            "flow_bytes_per_s": flow_bytes_per_s,
            "flow_packets_per_s": flow_packets_per_s,
            "flow_iat_mean": iat_mean,
            "fwd_iat_mean": clip_scalar(duration / max(fwd_packets, 1.0), 0, 1.0e8),
            "syn_flag_count": syn_flags,
            "ack_flag_count": clip_scalar(
                total_packets * (0.8 if protocol == "TCP" else 0.0), 0, 20_000
            ),
            "rst_flag_count": float(rng.poisson(2.0)) if label == "PortScan" else float(rng.poisson(0.1)),
            "average_packet_size": clip_scalar(total_bytes / max(total_packets, 1.0), 0, 3000),
            "active_mean": clip_scalar(rng.lognormal(10.0, 1.5), 0, 1.0e8),
            "idle_mean": clip_scalar(rng.lognormal(12.0, 1.8), 0, 1.0e8),
            "traffic_class": label,
        }


def load_cicids2017(n_records: int = 20_000, seed: int = 31) -> DatasetBundle:
    """Load the CIC-IDS-2017 stand-in as a :class:`DatasetBundle`.

    The real corpus has ~2.8M flows over five capture days; the default
    20,000-flow sample keeps the CPU-only experiments tractable while keeping
    every attack family represented.
    """
    generator = CICIDS2017Generator(seed=seed)
    table = generator.generate(n_records=n_records)
    return DatasetBundle(
        name="cicids2017",
        table=table,
        schema=generator.schema,
        catalog=generator.catalog,
        label_column="traffic_class",
        condition_columns=["traffic_class", "protocol"],
        description=(
            "Synthetic stand-in for CIC-IDS-2017: CICFlowMeter-style flow "
            "features, published attack families and imbalance, and "
            "attack-to-port/protocol rules encoded as knowledge-graph "
            "constraints; generated offline because the original CSVs are "
            "unavailable."
        ),
    )
