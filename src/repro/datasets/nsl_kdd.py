"""Synthetic generator for the NSL-KDD intrusion-detection benchmark.

NSL-KDD (Tavallaee et al., 2009) is the cleaned-up successor of KDD'99 and,
next to UNSW-NB15, the most common public benchmark for ML-based NIDS.  The
original corpus cannot be downloaded in this offline environment, so this
module generates a statistically faithful stand-in with

* the published 41-feature schema (`duration`, `protocol_type`, `service`,
  `flag`, byte counts, content features, time-based and host-based traffic
  rates) plus the attack label,
* the five-class label grouping used by most papers (`normal`, `dos`,
  `probe`, `r2l`, `u2r`) with the published heavy imbalance (U2R is a few
  hundredths of a percent),
* service/protocol/flag co-occurrence rules (HTTP runs over TCP, SNMP over
  UDP, ICMP traffic carries the ``ecr_i``-style services, ...) which become
  knowledge-graph constraints exactly as for the other datasets,
* per-class continuous profiles so the classes are separable downstream
  (smurf-style DoS floods have huge counts and zero duration, R2L sessions
  are long with few connections, and so on).

The ``reduced=True`` default keeps the 18 columns most GAN papers use;
``reduced=False`` emits all 41 features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import DatasetBundle, clip_scalar, mixture
from repro.knowledge.catalog import DomainCatalog, EventSpec
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table

__all__ = [
    "NSL_KDD_CLASSES",
    "NSL_KDD_FIELD_MAP",
    "NSLKDDGenerator",
    "nsl_kdd_catalog",
    "nsl_kdd_schema",
    "load_nsl_kdd",
]

#: The knowledge machinery's roles: the application-layer service plays the
#: "event type" role and is constrained to its admissible protocols.
NSL_KDD_FIELD_MAP: dict[str, str] = {
    "event_type": "service",
    "protocol": "protocol_type",
    "source_ip": "src_ip",          # not present in the schema (no IPs in NSL-KDD)
    "destination_ip": "dst_ip",     # not present in the schema
    "source_port": "src_port",      # not present in the schema
    "destination_port": "dst_port",  # not present in the schema
    "label": "label",
}

#: Five-class grouping with approximately the KDDTrain+ proportions.
NSL_KDD_CLASSES: dict[str, float] = {
    "normal": 0.534,
    "dos": 0.366,
    "probe": 0.093,
    "r2l": 0.0066,
    "u2r": 0.0004,
}

_PROTOCOLS = ("tcp", "udp", "icmp")

#: Connection-status flags and which protocols may produce them.
_FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "S3", "OTH")
_PROTO_FLAGS: dict[str, tuple[str, ...]] = {
    "tcp": ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "S3", "OTH"),
    "udp": ("SF",),
    "icmp": ("SF",),
}

#: Service -> allowed protocols (the KG constraint) and a rough benign share.
_SERVICE_RULES: dict[str, tuple[str, ...]] = {
    "http": ("tcp",),
    "smtp": ("tcp",),
    "ftp": ("tcp",),
    "ftp_data": ("tcp",),
    "telnet": ("tcp",),
    "ssh": ("tcp",),
    "pop_3": ("tcp",),
    "imap4": ("tcp",),
    "domain_u": ("udp",),
    "ntp_u": ("udp",),
    "snmp": ("udp",),
    "ecr_i": ("icmp",),
    "eco_i": ("icmp",),
    "urp_i": ("icmp",),
    "private": ("tcp", "udp"),
    "other": ("tcp", "udp", "icmp"),
    "finger": ("tcp",),
    "auth": ("tcp",),
    "irc": ("tcp",),
    "x11": ("tcp",),
}

#: Service mixture per class (weights, renormalised at sampling time).
_CLASS_SERVICES: dict[str, dict[str, float]] = {
    "normal": {"http": 0.40, "smtp": 0.10, "domain_u": 0.15, "ftp_data": 0.07,
               "other": 0.08, "private": 0.08, "telnet": 0.03, "ftp": 0.03,
               "pop_3": 0.02, "ntp_u": 0.02, "ssh": 0.01, "finger": 0.01},
    "dos": {"ecr_i": 0.45, "private": 0.30, "http": 0.20, "other": 0.05},
    "probe": {"private": 0.35, "eco_i": 0.20, "ecr_i": 0.10, "http": 0.15,
              "other": 0.15, "urp_i": 0.05},
    "r2l": {"ftp": 0.25, "ftp_data": 0.15, "http": 0.20, "telnet": 0.15,
            "imap4": 0.10, "pop_3": 0.05, "other": 0.10},
    "u2r": {"telnet": 0.40, "ftp_data": 0.20, "http": 0.20, "other": 0.20},
}

#: Per-class continuous profiles:
#: (duration log-mean, src_bytes log-mean, dst_bytes log-mean,
#:  count mean, srv_count mean, serror_rate, same_srv_rate)
_CLASS_PROFILES: dict[str, tuple[float, float, float, float, float, float, float]] = {
    "normal": (1.5, 5.5, 6.5, 8.0, 9.0, 0.02, 0.95),
    "dos": (0.0, 6.8, 0.5, 350.0, 350.0, 0.75, 0.98),
    "probe": (0.2, 1.5, 0.8, 120.0, 15.0, 0.35, 0.25),
    "r2l": (3.2, 5.8, 7.0, 2.0, 2.0, 0.01, 0.90),
    "u2r": (3.8, 5.2, 6.8, 1.5, 1.5, 0.01, 0.85),
}

#: Per class, the service names and the CDF of their mixture.
_SERVICE_CHOICES = {label: mixture(mix) for label, mix in _CLASS_SERVICES.items()}

_REDUCED_COLUMNS = [
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "logged_in", "count", "srv_count", "serror_rate", "rerror_rate",
    "same_srv_rate", "diff_srv_rate", "dst_host_count", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_serror_rate", "label",
]

_CONTENT_COLUMNS = [
    ("hot", 0.0, 30.0),
    ("num_failed_logins", 0.0, 5.0),
    ("num_compromised", 0.0, 10.0),
    ("root_shell", 0.0, 1.0),
    ("su_attempted", 0.0, 2.0),
    ("num_root", 0.0, 10.0),
    ("num_file_creations", 0.0, 10.0),
    ("num_shells", 0.0, 2.0),
    ("num_access_files", 0.0, 5.0),
    ("num_outbound_cmds", 0.0, 0.0),
]


def nsl_kdd_schema(reduced: bool = True) -> TableSchema:
    """The NSL-KDD schema (41 features + label, or the 18-column reduced view)."""
    columns = [
        ColumnSpec("duration", "continuous", minimum=0.0, maximum=60_000.0),
        ColumnSpec("protocol_type", "categorical", categories=_PROTOCOLS),
        ColumnSpec("service", "categorical", categories=tuple(_SERVICE_RULES)),
        ColumnSpec("flag", "categorical", categories=_FLAGS),
        ColumnSpec("src_bytes", "continuous", minimum=0.0, maximum=1.0e9),
        ColumnSpec("dst_bytes", "continuous", minimum=0.0, maximum=1.0e9),
        ColumnSpec("land", "categorical", categories=(0, 1)),
        ColumnSpec("wrong_fragment", "continuous", minimum=0.0, maximum=3.0),
        ColumnSpec("urgent", "continuous", minimum=0.0, maximum=3.0),
    ]
    columns += [
        ColumnSpec(name, "continuous", minimum=low, maximum=high)
        for name, low, high in _CONTENT_COLUMNS
    ]
    columns += [
        ColumnSpec("is_host_login", "categorical", categories=(0, 1)),
        ColumnSpec("is_guest_login", "categorical", categories=(0, 1)),
        ColumnSpec("logged_in", "categorical", categories=(0, 1)),
        ColumnSpec("count", "continuous", minimum=0.0, maximum=511.0),
        ColumnSpec("srv_count", "continuous", minimum=0.0, maximum=511.0),
        ColumnSpec("serror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("srv_serror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("rerror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("srv_rerror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("same_srv_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("diff_srv_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("srv_diff_host_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_count", "continuous", minimum=0.0, maximum=255.0),
        ColumnSpec("dst_host_srv_count", "continuous", minimum=0.0, maximum=255.0),
        ColumnSpec("dst_host_same_srv_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_diff_srv_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_same_src_port_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_srv_diff_host_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_serror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_srv_serror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_rerror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("dst_host_srv_rerror_rate", "continuous", minimum=0.0, maximum=1.0),
        ColumnSpec("label", "categorical", categories=tuple(NSL_KDD_CLASSES), sensitive=True),
    ]
    schema = TableSchema(columns)
    if not reduced:
        return schema
    return schema.subset(_REDUCED_COLUMNS)


def nsl_kdd_catalog() -> DomainCatalog:
    """Domain catalog encoding the service/protocol rules of NSL-KDD."""
    events = [
        EventSpec(
            name=service,
            kind="benign",
            protocols=protocols,
            description=f"NSL-KDD service {service!r}",
        )
        for service, protocols in _SERVICE_RULES.items()
    ]
    return DomainCatalog(
        name="nsl_kdd",
        devices=[],
        events=events,
        attacks=[],
        domains={},
        field_map=dict(NSL_KDD_FIELD_MAP),
    )


@dataclass
class NSLKDDGenerator:
    """Generates NSL-KDD-like connection records."""

    seed: int = 23
    reduced: bool = True

    def __post_init__(self) -> None:
        self.schema = nsl_kdd_schema(reduced=self.reduced)
        self.catalog = nsl_kdd_catalog()
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    def generate(self, n_records: int = 25_000) -> Table:
        """Generate ``n_records`` rows following the published class mix."""
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        classes = list(NSL_KDD_CLASSES)
        weights = np.asarray([NSL_KDD_CLASSES[c] for c in classes])
        counts = self._rng.multinomial(n_records, weights / weights.sum())
        # Keep every class represented so stratified splits are well defined.
        counts = np.maximum(counts, 2)
        records: list[dict] = []
        for label, count in zip(classes, counts):
            for _ in range(int(count)):
                records.append(self._generate_record(label))
        self._rng.shuffle(records)
        return Table.from_records(self.schema, records[:n_records])

    # ------------------------------------------------------------------ #
    def _generate_record(self, label: str) -> dict:
        rng = self._rng
        services, service_cdf = _SERVICE_CHOICES[label]
        service = services[service_cdf.searchsorted(rng.random(), side="right")]
        protocols = _SERVICE_RULES[service]
        protocol = protocols[rng.integers(0, len(protocols))]

        (log_duration, log_src, log_dst, count_mean, srv_count_mean,
         serror, same_srv) = _CLASS_PROFILES[label]

        # Flags: attacks that flood or scan mostly leave half-open (S0) or
        # rejected (REJ) connections; benign traffic completes normally (SF).
        allowed_flags = _PROTO_FLAGS[protocol]
        if label in ("dos", "probe") and protocol == "tcp" and rng.uniform() < 0.7:
            flag = "S0" if rng.uniform() < 0.6 else "REJ"
        else:
            flag = "SF" if rng.uniform() < 0.85 or len(allowed_flags) == 1 else (
                allowed_flags[rng.integers(0, len(allowed_flags))]
            )

        duration = clip_scalar(rng.lognormal(log_duration, 1.2), 0.0, 60_000.0)
        if label == "dos":
            duration = clip_scalar(rng.exponential(0.5), 0.0, 10.0)
        src_bytes = clip_scalar(rng.lognormal(log_src, 1.0), 0.0, 1.0e9)
        dst_bytes = clip_scalar(rng.lognormal(log_dst, 1.3), 0.0, 1.0e9)
        count = clip_scalar(rng.poisson(count_mean), 0, 511)
        srv_count = clip_scalar(rng.poisson(srv_count_mean), 0, 511)
        serror_rate = clip_scalar(rng.normal(serror, 0.08), 0.0, 1.0)
        rerror_rate = clip_scalar(rng.normal(0.05 if label != "probe" else 0.3, 0.05), 0.0, 1.0)
        same_srv_rate = clip_scalar(rng.normal(same_srv, 0.08), 0.0, 1.0)
        diff_srv_rate = clip_scalar(1.0 - same_srv_rate + rng.normal(0.0, 0.05), 0.0, 1.0)
        logged_in = 1 if (label in ("normal", "r2l", "u2r") and rng.uniform() < 0.7) else 0

        record = {
            "duration": duration,
            "protocol_type": protocol,
            "service": service,
            "flag": flag,
            "src_bytes": src_bytes,
            "dst_bytes": dst_bytes,
            "logged_in": logged_in,
            "count": count,
            "srv_count": srv_count,
            "serror_rate": serror_rate,
            "rerror_rate": rerror_rate,
            "same_srv_rate": same_srv_rate,
            "diff_srv_rate": diff_srv_rate,
            "dst_host_count": clip_scalar(rng.poisson(count_mean * 0.6) + 1, 1, 255),
            "dst_host_srv_count": clip_scalar(rng.poisson(srv_count_mean * 0.5) + 1, 1, 255),
            "dst_host_same_srv_rate": clip_scalar(rng.normal(same_srv, 0.1), 0.0, 1.0),
            "dst_host_serror_rate": clip_scalar(rng.normal(serror, 0.1), 0.0, 1.0),
            "label": label,
        }
        if self.reduced:
            return record

        compromised = label in ("r2l", "u2r")
        record.update(
            {
                "land": 1 if (label == "dos" and rng.uniform() < 0.01) else 0,
                "wrong_fragment": float(rng.integers(0, 3)) if label == "dos" else 0.0,
                "urgent": 0.0,
                "hot": float(rng.poisson(3.0)) if compromised else float(rng.poisson(0.1)),
                "num_failed_logins": float(rng.poisson(1.5)) if label == "r2l" else 0.0,
                "num_compromised": float(rng.poisson(2.0)) if compromised else 0.0,
                "root_shell": 1.0 if (label == "u2r" and rng.uniform() < 0.6) else 0.0,
                "su_attempted": float(rng.integers(0, 2)) if label == "u2r" else 0.0,
                "num_root": float(rng.poisson(2.5)) if label == "u2r" else 0.0,
                "num_file_creations": float(rng.poisson(1.5)) if compromised else 0.0,
                "num_shells": 1.0 if (label == "u2r" and rng.uniform() < 0.4) else 0.0,
                "num_access_files": float(rng.poisson(0.8)) if compromised else 0.0,
                "num_outbound_cmds": 0.0,
                "is_host_login": 0,
                "is_guest_login": 1 if (label == "r2l" and rng.uniform() < 0.3) else 0,
                "srv_serror_rate": clip_scalar(rng.normal(serror, 0.08), 0.0, 1.0),
                "srv_rerror_rate": clip_scalar(rng.normal(0.05, 0.05), 0.0, 1.0),
                "srv_diff_host_rate": clip_scalar(rng.normal(0.1, 0.08), 0.0, 1.0),
                "dst_host_diff_srv_rate": clip_scalar(rng.normal(1.0 - same_srv, 0.1), 0.0, 1.0),
                "dst_host_same_src_port_rate": clip_scalar(rng.normal(0.5, 0.2), 0.0, 1.0),
                "dst_host_srv_diff_host_rate": clip_scalar(rng.normal(0.1, 0.08), 0.0, 1.0),
                "dst_host_srv_serror_rate": clip_scalar(rng.normal(serror, 0.1), 0.0, 1.0),
                "dst_host_rerror_rate": clip_scalar(rng.normal(0.05, 0.05), 0.0, 1.0),
                "dst_host_srv_rerror_rate": clip_scalar(rng.normal(0.05, 0.05), 0.0, 1.0),
            }
        )
        return record


def load_nsl_kdd(n_records: int = 25_000, seed: int = 23, reduced: bool = True) -> DatasetBundle:
    """Load the NSL-KDD stand-in as a :class:`DatasetBundle`.

    The real KDDTrain+ split has 125,973 records; the default 25,000-row
    sample keeps CPU-only experiments tractable while preserving the class mix.
    """
    generator = NSLKDDGenerator(seed=seed, reduced=reduced)
    table = generator.generate(n_records=n_records)
    return DatasetBundle(
        name="nsl_kdd",
        table=table,
        schema=generator.schema,
        catalog=generator.catalog,
        label_column="label",
        condition_columns=["service", "protocol_type", "label"],
        description=(
            "Synthetic stand-in for NSL-KDD: published 41-feature schema, "
            "five-class label grouping with the original imbalance, and "
            "service/protocol/flag co-occurrence rules used as knowledge-graph "
            "constraints; generated offline because the original files are "
            "unavailable."
        ),
    )
