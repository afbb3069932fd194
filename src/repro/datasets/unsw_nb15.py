"""Synthetic generator for the UNSW-NB15 network intrusion dataset.

The real UNSW-NB15 corpus (2,540,044 flow records, 49 attributes spanning
flow, basic, content, time and generated feature groups, nine attack
families plus normal traffic) cannot be downloaded in this offline
environment.  This module generates a statistically faithful stand-in:

* the full 49-column schema with the published feature names and types,
* the published attack-category imbalance (Normal ~87 %, Generic ~8.5 %,
  Exploits ~1.8 %, ... Worms ~0.007 %),
* protocol / service / destination-port / state co-occurrence rules (HTTP is
  TCP on 80/8080, DNS is UDP or TCP on 53, and so on), which is exactly the
  kind of domain constraint the paper's knowledge graph encodes,
* per-category continuous feature profiles so that attack classes are
  separable by a downstream classifier (as they are in the real data).

A reduced 14-column schema (``reduced=True``, the default for the GAN
experiments) keeps the generative-model benchmarks tractable on CPU while
preserving every column the knowledge graph constrains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import DatasetBundle, clip_scalar, mixture
from repro.knowledge.catalog import DomainCatalog, EventSpec
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table

__all__ = [
    "ATTACK_CATEGORIES",
    "UNSW_FIELD_MAP",
    "UNSWNB15Generator",
    "unsw_nb15_catalog",
    "unsw_nb15_schema",
    "load_unsw_nb15",
]

#: Field map for the knowledge machinery: the "event type" role is played by
#: the application-layer service, whose protocol/port combinations the
#: knowledge graph constrains.
UNSW_FIELD_MAP: dict[str, str] = {
    "event_type": "service",
    "protocol": "proto",
    "source_ip": "srcip",
    "destination_ip": "dstip",
    "source_port": "sport",
    "destination_port": "dsport",
    "label": "attack_cat",
}

#: Attack categories with (approximately) the published proportions of the
#: full 2.54M-record corpus.
ATTACK_CATEGORIES: dict[str, float] = {
    "Normal": 0.8735,
    "Generic": 0.0848,
    "Exploits": 0.0175,
    "Fuzzers": 0.0095,
    "DoS": 0.0064,
    "Reconnaissance": 0.0055,
    "Analysis": 0.0011,
    "Backdoors": 0.0009,
    "Shellcode": 0.0006,
    "Worms": 0.0002,
}

_SRC_IPS = (
    "59.166.0.1", "59.166.0.2", "59.166.0.3", "59.166.0.4",
    "175.45.176.1", "175.45.176.2", "175.45.176.3",
)
_DST_IPS = (
    "149.171.126.1", "149.171.126.2", "149.171.126.3", "149.171.126.4",
    "149.171.126.5", "149.171.126.6",
)

#: Service -> (allowed protocols, allowed destination ports).
_SERVICE_RULES: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = {
    "http": (("tcp",), (80, 8080)),
    "ssl": (("tcp",), (443,)),
    "dns": (("udp", "tcp"), (53,)),
    "smtp": (("tcp",), (25,)),
    "ftp": (("tcp",), (21,)),
    "ftp-data": (("tcp",), (20,)),
    "ssh": (("tcp",), (22,)),
    "pop3": (("tcp",), (110,)),
    "snmp": (("udp",), (161,)),
    "radius": (("udp",), (1812,)),
    "irc": (("tcp",), (6667,)),
    "dhcp": (("udp",), (67, 68)),
    "-": (("tcp", "udp", "icmp"), (0, 1024, 5190, 6881, 31337, 49152, 111, 514)),
}

_PROTOCOLS = ("tcp", "udp", "icmp")
_STATES = ("FIN", "CON", "INT", "REQ", "RST", "CLO")

#: Per-protocol admissible connection states (a second KG-style constraint).
_PROTO_STATES: dict[str, tuple[str, ...]] = {
    "tcp": ("FIN", "CON", "REQ", "RST", "CLO"),
    "udp": ("CON", "INT", "REQ"),
    "icmp": ("INT", "CLO"),
}

#: Service mixture per attack category (service name -> weight).
_CATEGORY_SERVICES: dict[str, dict[str, float]] = {
    "Normal": {"http": 0.28, "ssl": 0.18, "dns": 0.30, "smtp": 0.07, "ftp": 0.03,
               "ftp-data": 0.02, "ssh": 0.04, "pop3": 0.03, "-": 0.05},
    "Generic": {"dns": 0.55, "http": 0.15, "smtp": 0.10, "-": 0.20},
    "Exploits": {"http": 0.45, "ftp": 0.10, "smtp": 0.12, "-": 0.33},
    "Fuzzers": {"http": 0.35, "dns": 0.15, "-": 0.50},
    "DoS": {"http": 0.40, "dns": 0.20, "-": 0.40},
    "Reconnaissance": {"http": 0.25, "dns": 0.25, "snmp": 0.15, "-": 0.35},
    "Analysis": {"http": 0.50, "-": 0.50},
    "Backdoors": {"ssh": 0.25, "irc": 0.20, "-": 0.55},
    "Shellcode": {"http": 0.30, "-": 0.70},
    "Worms": {"http": 0.45, "smtp": 0.25, "-": 0.30},
}

#: Per category, the service names and the CDF of their mixture.
_SERVICE_CHOICES = {category: mixture(mix) for category, mix in _CATEGORY_SERVICES.items()}

#: Per-category continuous profiles:
#: (duration log-mean, sbytes log-mean, dbytes log-mean, spkts mean, sttl mean)
_CATEGORY_PROFILES: dict[str, tuple[float, float, float, float, float]] = {
    "Normal": (0.0, 6.5, 7.5, 12.0, 62.0),
    "Generic": (-3.0, 4.7, 3.2, 2.0, 254.0),
    "Exploits": (0.5, 6.9, 5.5, 14.0, 62.0),
    "Fuzzers": (1.2, 7.4, 4.0, 20.0, 62.0),
    "DoS": (0.2, 6.8, 3.5, 16.0, 254.0),
    "Reconnaissance": (-2.0, 4.3, 3.0, 3.0, 254.0),
    "Analysis": (-1.0, 5.0, 2.5, 4.0, 254.0),
    "Backdoors": (0.8, 5.8, 5.2, 9.0, 62.0),
    "Shellcode": (-1.5, 4.9, 3.4, 4.0, 62.0),
    "Worms": (0.6, 6.2, 5.8, 11.0, 62.0),
}

_REDUCED_COLUMNS = [
    "proto", "service", "state", "dsport", "dur", "sbytes", "dbytes", "sttl",
    "dttl", "spkts", "dpkts", "smeansz", "dmeansz", "attack_cat",
]

_ALL_DSPORTS = tuple(sorted({port for _, ports in _SERVICE_RULES.values() for port in ports}))


def unsw_nb15_schema(reduced: bool = True) -> TableSchema:
    """The UNSW-NB15 schema: 49 columns, or the 14-column reduced view."""
    categories = tuple(ATTACK_CATEGORIES)
    columns = [
        ColumnSpec("srcip", "categorical", categories=_SRC_IPS),
        ColumnSpec("sport", "continuous", minimum=1, maximum=65535),
        ColumnSpec("dstip", "categorical", categories=_DST_IPS),
        ColumnSpec("dsport", "categorical", categories=_ALL_DSPORTS),
        ColumnSpec("proto", "categorical", categories=_PROTOCOLS),
        ColumnSpec("state", "categorical", categories=_STATES),
        ColumnSpec("dur", "continuous", minimum=0.0, maximum=3600.0),
        ColumnSpec("sbytes", "continuous", minimum=0.0, maximum=1.0e7),
        ColumnSpec("dbytes", "continuous", minimum=0.0, maximum=1.0e7),
        ColumnSpec("sttl", "continuous", minimum=0.0, maximum=255.0),
        ColumnSpec("dttl", "continuous", minimum=0.0, maximum=255.0),
        ColumnSpec("sloss", "continuous", minimum=0.0, maximum=5000.0),
        ColumnSpec("dloss", "continuous", minimum=0.0, maximum=5000.0),
        ColumnSpec("service", "categorical", categories=tuple(_SERVICE_RULES)),
        ColumnSpec("sload", "continuous", minimum=0.0, maximum=1.0e9),
        ColumnSpec("dload", "continuous", minimum=0.0, maximum=1.0e9),
        ColumnSpec("spkts", "continuous", minimum=0.0, maximum=10000.0),
        ColumnSpec("dpkts", "continuous", minimum=0.0, maximum=10000.0),
        ColumnSpec("swin", "continuous", minimum=0.0, maximum=255.0),
        ColumnSpec("dwin", "continuous", minimum=0.0, maximum=255.0),
        ColumnSpec("stcpb", "continuous", minimum=0.0, maximum=4.3e9),
        ColumnSpec("dtcpb", "continuous", minimum=0.0, maximum=4.3e9),
        ColumnSpec("smeansz", "continuous", minimum=0.0, maximum=1500.0),
        ColumnSpec("dmeansz", "continuous", minimum=0.0, maximum=1500.0),
        ColumnSpec("trans_depth", "continuous", minimum=0.0, maximum=20.0),
        ColumnSpec("res_bdy_len", "continuous", minimum=0.0, maximum=1.0e6),
        ColumnSpec("sjit", "continuous", minimum=0.0, maximum=1.0e5),
        ColumnSpec("djit", "continuous", minimum=0.0, maximum=1.0e5),
        ColumnSpec("stime", "continuous", minimum=1.4e9, maximum=1.5e9),
        ColumnSpec("ltime", "continuous", minimum=1.4e9, maximum=1.5e9),
        ColumnSpec("sintpkt", "continuous", minimum=0.0, maximum=1.0e4),
        ColumnSpec("dintpkt", "continuous", minimum=0.0, maximum=1.0e4),
        ColumnSpec("tcprtt", "continuous", minimum=0.0, maximum=10.0),
        ColumnSpec("synack", "continuous", minimum=0.0, maximum=10.0),
        ColumnSpec("ackdat", "continuous", minimum=0.0, maximum=10.0),
        ColumnSpec("is_sm_ips_ports", "categorical", categories=(0, 1)),
        ColumnSpec("ct_state_ttl", "continuous", minimum=0.0, maximum=10.0),
        ColumnSpec("ct_flw_http_mthd", "continuous", minimum=0.0, maximum=30.0),
        ColumnSpec("is_ftp_login", "categorical", categories=(0, 1)),
        ColumnSpec("ct_ftp_cmd", "continuous", minimum=0.0, maximum=10.0),
        ColumnSpec("ct_srv_src", "continuous", minimum=0.0, maximum=60.0),
        ColumnSpec("ct_srv_dst", "continuous", minimum=0.0, maximum=60.0),
        ColumnSpec("ct_dst_ltm", "continuous", minimum=0.0, maximum=60.0),
        ColumnSpec("ct_src_ltm", "continuous", minimum=0.0, maximum=60.0),
        ColumnSpec("ct_src_dport_ltm", "continuous", minimum=0.0, maximum=60.0),
        ColumnSpec("ct_dst_sport_ltm", "continuous", minimum=0.0, maximum=60.0),
        ColumnSpec("ct_dst_src_ltm", "continuous", minimum=0.0, maximum=60.0),
        ColumnSpec("attack_cat", "categorical", categories=categories, sensitive=True),
        ColumnSpec("label", "categorical", categories=(0, 1)),
    ]
    schema = TableSchema(columns)
    if not reduced:
        return schema
    return schema.subset(_REDUCED_COLUMNS)


def unsw_nb15_catalog() -> DomainCatalog:
    """Domain catalog encoding the service/protocol/port rules of UNSW-NB15."""
    events = [
        EventSpec(
            name=service,
            kind="benign",
            protocols=protocols,
            destination_ports=ports,
            source_port_range=(1, 65535),
            description=f"UNSW-NB15 service {service!r}",
        )
        for service, (protocols, ports) in _SERVICE_RULES.items()
    ]
    return DomainCatalog(
        name="unsw_nb15",
        devices=[],
        events=events,
        attacks=[],
        domains={},
        field_map=dict(UNSW_FIELD_MAP),
    )


@dataclass
class UNSWNB15Generator:
    """Generates UNSW-NB15-like flow records."""

    seed: int = 11
    reduced: bool = True

    def __post_init__(self) -> None:
        self.schema = unsw_nb15_schema(reduced=self.reduced)
        self.catalog = unsw_nb15_catalog()
        self._rng = np.random.default_rng(self.seed)

    def generate(self, n_records: int = 20_000) -> Table:
        """Generate ``n_records`` rows following the published category mix."""
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        categories = list(ATTACK_CATEGORIES)
        weights = np.asarray([ATTACK_CATEGORIES[c] for c in categories])
        weights = weights / weights.sum()
        counts = self._rng.multinomial(n_records, weights)
        # Guarantee at least a couple of examples of every class so that
        # stratified splits and per-class metrics are well defined even for
        # small samples.
        for i in range(len(counts)):
            if counts[i] < 2:
                counts[i] = 2
        records: list[dict] = []
        for category, count in zip(categories, counts):
            for _ in range(int(count)):
                records.append(self._generate_record(category))
        self._rng.shuffle(records)
        return Table.from_records(self.schema, records[:n_records])

    # ------------------------------------------------------------------ #
    def _generate_record(self, category: str) -> dict:
        rng = self._rng
        services, service_cdf = _SERVICE_CHOICES[category]
        service = services[service_cdf.searchsorted(rng.random(), side="right")]
        protocols, ports = _SERVICE_RULES[service]
        proto = protocols[rng.integers(0, len(protocols))]
        state = _PROTO_STATES[proto][rng.integers(0, len(_PROTO_STATES[proto]))]
        dsport = int(ports[rng.integers(0, len(ports))])

        log_dur, log_sbytes, log_dbytes, spkts_mean, sttl_mean = _CATEGORY_PROFILES[category]
        dur = clip_scalar(rng.lognormal(log_dur, 1.0), 0.0, 3600.0)
        sbytes = clip_scalar(rng.lognormal(log_sbytes, 1.0), 0.0, 1.0e7)
        dbytes = clip_scalar(rng.lognormal(log_dbytes, 1.2), 0.0, 1.0e7)
        spkts = clip_scalar(rng.poisson(spkts_mean) + 1, 1, 10_000)
        dpkts = clip_scalar(
            rng.poisson(max(spkts_mean * 0.8, 1.0)) + (1 if dbytes > 0 else 0), 0, 10_000
        )
        sttl = clip_scalar(rng.normal(sttl_mean, 4.0), 0, 255)
        dttl = clip_scalar(rng.normal(sttl_mean * 0.5 + 30.0, 6.0), 0, 255)
        smeansz = clip_scalar(sbytes / max(spkts, 1.0), 0, 1500)
        dmeansz = clip_scalar(dbytes / max(dpkts, 1.0), 0, 1500)

        record = {
            "proto": proto,
            "service": service,
            "state": state,
            "dsport": dsport,
            "dur": dur,
            "sbytes": sbytes,
            "dbytes": dbytes,
            "sttl": sttl,
            "dttl": dttl,
            "spkts": spkts,
            "dpkts": dpkts,
            "smeansz": smeansz,
            "dmeansz": dmeansz,
            "attack_cat": category,
        }
        if self.reduced:
            return record

        is_tcp = proto == "tcp"
        swin = 255.0 if is_tcp else 0.0
        stime = float(rng.uniform(1.42e9, 1.43e9))
        record.update(
            {
                "srcip": _SRC_IPS[rng.integers(0, len(_SRC_IPS))],
                "sport": float(rng.integers(1024, 65536)),
                "dstip": _DST_IPS[rng.integers(0, len(_DST_IPS))],
                "sloss": float(rng.poisson(1.0) if is_tcp else 0.0),
                "dloss": float(rng.poisson(0.6) if is_tcp else 0.0),
                "sload": clip_scalar(sbytes * 8.0 / max(dur, 1e-3), 0, 1.0e9),
                "dload": clip_scalar(dbytes * 8.0 / max(dur, 1e-3), 0, 1.0e9),
                "swin": swin,
                "dwin": swin,
                "stcpb": float(rng.uniform(0, 4.2e9)) if is_tcp else 0.0,
                "dtcpb": float(rng.uniform(0, 4.2e9)) if is_tcp else 0.0,
                "trans_depth": float(rng.integers(0, 3)) if service == "http" else 0.0,
                "res_bdy_len": float(rng.lognormal(5.0, 1.5)) if service == "http" else 0.0,
                "sjit": clip_scalar(rng.lognormal(2.0, 1.5), 0, 1.0e5),
                "djit": clip_scalar(rng.lognormal(1.5, 1.5), 0, 1.0e5),
                "stime": stime,
                "ltime": stime + dur,
                "sintpkt": clip_scalar(dur * 1000.0 / max(spkts, 1.0), 0, 1.0e4),
                "dintpkt": clip_scalar(dur * 1000.0 / max(dpkts, 1.0), 0, 1.0e4),
                "tcprtt": clip_scalar(rng.lognormal(-3.0, 1.0), 0, 10) if is_tcp else 0.0,
                "synack": clip_scalar(rng.lognormal(-3.5, 1.0), 0, 10) if is_tcp else 0.0,
                "ackdat": clip_scalar(rng.lognormal(-3.8, 1.0), 0, 10) if is_tcp else 0.0,
                "is_sm_ips_ports": 0,
                "ct_state_ttl": float(rng.integers(0, 7)),
                "ct_flw_http_mthd": float(rng.integers(0, 5)) if service == "http" else 0.0,
                "is_ftp_login": 1 if service == "ftp" and rng.uniform() < 0.5 else 0,
                "ct_ftp_cmd": float(rng.integers(0, 4)) if service == "ftp" else 0.0,
                "ct_srv_src": float(rng.integers(1, 40)),
                "ct_srv_dst": float(rng.integers(1, 40)),
                "ct_dst_ltm": float(rng.integers(1, 40)),
                "ct_src_ltm": float(rng.integers(1, 40)),
                "ct_src_dport_ltm": float(rng.integers(1, 40)),
                "ct_dst_sport_ltm": float(rng.integers(1, 40)),
                "ct_dst_src_ltm": float(rng.integers(1, 40)),
                "label": 0 if category == "Normal" else 1,
            }
        )
        return record


def load_unsw_nb15(
    n_records: int = 20_000, seed: int = 11, reduced: bool = True
) -> DatasetBundle:
    """Load the UNSW-NB15 stand-in as a :class:`DatasetBundle`.

    The full corpus has 2,540,044 records; the default 20,000-row sample keeps
    the CPU-only GAN benchmarks tractable while preserving the category mix.
    """
    generator = UNSWNB15Generator(seed=seed, reduced=reduced)
    table = generator.generate(n_records=n_records)
    return DatasetBundle(
        name="unsw_nb15",
        table=table,
        schema=generator.schema,
        catalog=generator.catalog,
        label_column="attack_cat",
        condition_columns=["service", "proto", "attack_cat"],
        description=(
            "Synthetic stand-in for UNSW-NB15: published schema, attack-category "
            "imbalance and service/protocol/port co-occurrence rules; generated "
            "offline because the original CSVs are unavailable."
        ),
    )
