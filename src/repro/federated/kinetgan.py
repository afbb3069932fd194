"""Federated training of the KiNETGAN generator itself.

The distributed scenario in :mod:`repro.distributed` shares *synthetic rows*;
the paper's future-work section goes one step further and proposes federating
the generative model so that not even synthetic rows need to flow until the
jointly trained generator is ready.  :class:`FederatedKiNETGAN` implements
that: every site trains KiNETGAN locally on its own traffic for a few epochs
per round, only generator / discriminator *weights* are exchanged, and the
coordinator federated-averages them (optionally clipping and noising the
per-site weight updates with DP-FedAvg).

All sites must agree on the transformed feature layout, so the coordinator
fits a single :class:`~repro.tabular.transformer.DataTransformer` on a public
reference table (for example a small schema-conformant calibration sample or
an early synthetic share) and broadcasts it; each site then builds its own
condition sampler over its private table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import require_row_count
from repro.core.config import KiNETGANConfig
from repro.core.trainer import KiNETGANTrainer
from repro.engine import sampling_rng, seeded_rng
from repro.federated.aggregation import safe_mean
from repro.federated.dp import DPFedAvgConfig, DPFedAvgMechanism
from repro.federated.parameters import (
    FlatChannel,
    FlatSlot,
    StateDict,
    copy_state,
    weighted_average,
)
from repro.knowledge.builder import build_network_kg
from repro.knowledge.catalog import DomainCatalog
from repro.knowledge.reasoner import KGReasoner
from repro.obs import span
from repro.runtime import Executor, map_with_quorum, resolve_executor
from repro.runtime.state import StateRef
from repro.tabular.sampler import ConditionSampler
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer, DecodedRows

__all__ = ["FederatedKiNETGANSite", "FederatedKiNETGANRound", "FederatedKiNETGAN"]


class FederatedKiNETGANSite:
    """One participating site: private traffic plus a local KiNETGAN trainer."""

    def __init__(
        self,
        site_id: str,
        table: Table,
        transformer: DataTransformer,
        config: KiNETGANConfig,
        condition_columns: list[str] | None = None,
        reasoner: KGReasoner | None = None,
        seed: int = 0,
    ) -> None:
        if table.n_rows == 0:
            raise ValueError(f"site {site_id!r} has no local data")
        self.site_id = site_id
        self.table = table
        self.config = config.with_overrides(seed=seed)
        self.sampler = ConditionSampler(
            table=table,
            transformer=transformer,
            conditional_columns=condition_columns,
            uniform_probability=config.uniform_probability,
        )
        self.trainer = KiNETGANTrainer(
            config=self.config,
            transformer=transformer,
            sampler=self.sampler,
            reasoner=reasoner,
        )
        self.transformer = transformer

    # ------------------------------------------------------------------ #
    @property
    def n_records(self) -> int:
        return self.table.n_rows

    def get_state(self) -> tuple[StateDict, StateDict]:
        """Current (generator, discriminator) network states."""
        return (
            self.trainer.generator.network.state_dict(),
            self.trainer.discriminator.network.state_dict(),
        )

    def set_state(self, generator_state: StateDict, discriminator_state: StateDict) -> None:
        """Load broadcast global states into the local networks."""
        self.trainer.generator.network.load_state_dict(generator_state)
        self.trainer.discriminator.network.load_state_dict(discriminator_state)

    def train_local(self, epochs: int) -> dict[str, float]:
        """Run ``epochs`` local KiNETGAN epochs on the private table."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        original_epochs = self.trainer.config.epochs
        self.trainer.config = self.trainer.config.with_overrides(epochs=epochs)
        try:
            history = self.trainer.fit(self.table)
        finally:
            self.trainer.config = self.trainer.config.with_overrides(epochs=original_epochs)
        return history.last()

    def sample_into(self, n: int, rng: np.random.Generator, out: DecodedRows, at: int) -> None:
        """Decode ``n`` rows generated locally from the current weights into
        ``out`` from row ``at`` on."""
        self.trainer.share_into(self.sampler.empirical_codes(n, rng), rng, out, at)

    # ------------------------------------------------------------------ #
    # The mutable cross-round trainer state: everything a round changes
    # that is NOT the broadcast generator/discriminator weights.  This is
    # the per-round "delta" of the round transport -- the whole site
    # (table, fitted sampler/transformer, reasoner, networks) stays
    # resident in the execution plane and only this state plus the
    # flattened weight buffers travel.
    # ------------------------------------------------------------------ #
    def trainer_state(self) -> dict:
        """Snapshot the mutable trainer state (optimizers, RNG, KG head).

        The trainer's single :class:`numpy.random.Generator` is shared by
        the dropout / Gumbel layers and the knowledge discriminator, so its
        bit-generator state captures every stream a local epoch consumes.
        The training history is deliberately *not* included -- it grows
        with every round, so the round transport ships only the entries a
        round appends (:meth:`history_tail`), keeping the delta
        constant-size.
        """
        trainer = self.trainer
        state = {
            "rng": trainer.rng.bit_generator.state,
            "opt_g": trainer._opt_g.state_dict(),
            "opt_d": trainer._opt_d.state_dict(),
            "kg_head": None,
            "kg_opt": None,
        }
        kg = trainer.kg_discriminator
        if kg is not None and kg.head is not None:
            state["kg_head"] = kg.head.state_dict()
            state["kg_opt"] = kg._optimizer.state_dict()
        return state

    def load_trainer_state(self, state: dict) -> None:
        """Restore a :meth:`trainer_state` snapshot in place.

        The RNG state is assigned through the existing ``bit_generator`` so
        every layer holding a reference to the shared generator follows;
        optimizer moments and head weights are copied into their existing
        buffers so parameter bindings survive.
        """
        trainer = self.trainer
        trainer.rng.bit_generator.state = state["rng"]
        trainer._opt_g.load_state_dict(state["opt_g"])
        trainer._opt_d.load_state_dict(state["opt_d"])
        kg = trainer.kg_discriminator
        if state["kg_head"] is not None:
            if kg is None or kg.head is None:
                raise ValueError("trainer state carries a KG head but the site has none")
            kg.head.load_state_dict(state["kg_head"])
            kg._optimizer.load_state_dict(state["kg_opt"])

    # ------------------------------------------------------------------ #
    # Constant-size history transport: a round ships only the entries it
    # appended.  Lengths are captured before training (in the parent before
    # dispatch, in the worker before the local epochs), and the parent
    # replays the tail onto its own history -- a no-op rewrite under the
    # in-process executors, an append under the process executor.
    # ------------------------------------------------------------------ #
    _HISTORY_FIELDS = (
        "generator_loss",
        "discriminator_loss",
        "condition_loss",
        "knowledge_loss",
        "validity_rate",
    )

    def history_lengths(self) -> dict[str, int]:
        """Current length of every per-epoch history trace."""
        history = self.trainer.history
        return {name: len(getattr(history, name)) for name in self._HISTORY_FIELDS}

    def history_tail(self, lengths: dict[str, int]) -> dict[str, list[float]]:
        """The history entries appended since ``lengths`` was captured."""
        history = self.trainer.history
        return {
            name: getattr(history, name)[lengths[name] :] for name in self._HISTORY_FIELDS
        }

    def apply_history_tail(
        self, lengths: dict[str, int], tail: dict[str, list[float]]
    ) -> None:
        """Truncate each trace to ``lengths`` and append ``tail``.

        Truncating first makes the operation idempotent with respect to the
        executor: under serial/thread the worker already appended to this
        very history object, under a process pool it appended to its
        resident copy only.
        """
        history = self.trainer.history
        for name in self._HISTORY_FIELDS:
            trace = getattr(history, name)
            del trace[lengths[name] :]
            trace.extend(tail[name])


@dataclass
class _SiteRoundTask:
    """One site's local-training slice of a round (executor work unit).

    The whole site lives in the execution plane (installed once); the round
    ships down only this task -- the site ref, the mutable trainer state,
    one :class:`~repro.federated.parameters.FlatSlot` per network and the
    epoch count.  The worker loads the broadcast weights through the
    slots, leaves its trained weights in their result rows and returns the
    new trainer state plus the round metrics.
    """

    site: StateRef
    trainer_state: dict
    generator: FlatSlot
    discriminator: FlatSlot
    local_epochs: int


def _run_site_round(task: _SiteRoundTask) -> tuple[dict, dict[str, list[float]], dict[str, float]]:
    """Module-level worker: delta in, delta out."""
    with span("federated.site_round"):
        site: FederatedKiNETGANSite = task.site.resolve()
        site.load_trainer_state(task.trainer_state)
        # The broadcast vectors go straight into the live network arrays (a
        # single memcpy per network when arenas are intact).
        generator_state, discriminator_state = site.get_state()
        task.generator.load_into(generator_state)
        task.discriminator.load_into(discriminator_state)
        lengths = site.history_lengths()
        metrics = site.train_local(task.local_epochs)
        generator_state, discriminator_state = site.get_state()
        task.generator.store(generator_state)
        task.discriminator.store(discriminator_state)
        return site.trainer_state(), site.history_tail(lengths), metrics


@dataclass
class FederatedKiNETGANRound:
    """Summary of one federated KiNETGAN round."""

    round_index: int
    participants: list[str]
    mean_generator_loss: float
    mean_discriminator_loss: float
    epsilon: float | None = None
    #: Sites selected for the round whose local training failed (after
    #: retries); the round aggregated over the surviving quorum only and
    #: the dropped sites' authoritative parent state was left untouched.
    dropped: list[str] = field(default_factory=list)


class FederatedKiNETGAN:
    """Coordinator for federated KiNETGAN weight averaging.

    Typical use::

        fed = FederatedKiNETGAN(
            reference_table=calibration_sample,
            catalog=bundle.catalog,
            condition_columns=bundle.condition_columns,
            config=KiNETGANConfig(epochs=1),     # epochs ignored, see local_epochs
        )
        fed.add_site("hospital-a", table_a)
        fed.add_site("hospital-b", table_b)
        fed.run(num_rounds=10, local_epochs=2)
        synthetic = fed.sample(5000)
    """

    def __init__(
        self,
        reference_table: Table,
        config: KiNETGANConfig | None = None,
        catalog: DomainCatalog | None = None,
        condition_columns: list[str] | None = None,
        dp_config: DPFedAvgConfig | None = None,
        seed: int = 0,
        executor: Executor | str | int | None = None,
        client_fraction: float = 1.0,
        min_sites: int = 1,
        task_timeout: float | None = None,
        task_retries: int = 0,
        retry_backoff: float = 0.0,
    ) -> None:
        """``client_fraction`` subsamples the participating sites per round
        (the knob the federated detector server already has): each round
        trains ``max(1, round(fraction * n_sites))`` sites drawn without
        replacement from the coordinator's seeded RNG.  At the default 1.0
        no draw is consumed, so existing seeded runs replay bit-for-bit.

        ``min_sites`` / ``task_timeout`` / ``task_retries`` /
        ``retry_backoff`` mirror the federated detector server's resilience
        knobs: a site round that still fails after ``task_retries``
        bit-identical replays is skipped (recorded in the round's
        ``dropped``), its authoritative parent-site state is rolled back to
        its pre-round snapshot, and the round aggregates over the
        survivors; fewer than ``min_sites`` survivors raise
        :class:`~repro.runtime.QuorumError` with the global state
        untouched."""
        if not 0.0 < client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        if min_sites < 1:
            raise ValueError("min_sites must be at least 1")
        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        self.min_sites = min_sites
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.retry_backoff = retry_backoff
        self.config = config if config is not None else KiNETGANConfig()
        self.condition_columns = condition_columns
        self.client_fraction = client_fraction
        self.seed = seed
        self.rng = seeded_rng(seed)
        self.executor = resolve_executor(executor)
        self.transformer = DataTransformer(
            max_modes=self.config.max_modes,
            continuous_encoding=self.config.continuous_encoding,
            seed=self.config.seed,
        ).fit(reference_table)
        self.reasoner: KGReasoner | None = None
        if catalog is not None and self.config.use_knowledge_discriminator:
            self.reasoner = KGReasoner(build_network_kg(catalog), field_map=catalog.field_map)
        self.sites: list[FederatedKiNETGANSite] = []
        self.dp_generator = DPFedAvgMechanism(dp_config, rng=self.rng) if dp_config else None
        self.dp_discriminator = DPFedAvgMechanism(dp_config, rng=self.rng) if dp_config else None
        self.rounds: list[FederatedKiNETGANRound] = []
        self._global_generator: StateDict | None = None
        self._global_discriminator: StateDict | None = None
        # The round transport, built on the first round: every site
        # installed once (sites added later join on the next round), plus
        # one parameter channel per network.
        self._site_refs: dict[str, StateRef] = {}
        self._channels: tuple[FlatChannel, FlatChannel] | None = None

    def release_transport(self) -> None:
        """Release the resident round transport but keep the executor open.

        For coordinators sharing a caller-owned executor: frees the
        installed sites and both parameter channels without shutting the
        workers down (mirrors ``FederatedServer.release_transport``).
        """
        for ref in self._site_refs.values():
            self.executor.evict(ref)
        self._site_refs.clear()
        if self._channels is not None:
            for channel in self._channels:
                channel.close()
            self._channels = None

    def close(self) -> None:
        """Release the round transport and the executor's worker pool."""
        self.release_transport()
        self.executor.close()

    def __enter__(self) -> "FederatedKiNETGAN":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def add_site(self, site_id: str, table: Table) -> FederatedKiNETGANSite:
        """Register a participating site holding ``table`` privately."""
        if any(site.site_id == site_id for site in self.sites):
            raise ValueError(f"duplicate site id {site_id!r}")
        site = FederatedKiNETGANSite(
            site_id=site_id,
            table=table,
            transformer=self.transformer,
            config=self.config,
            condition_columns=self._usable_condition_columns(table),
            reasoner=self.reasoner,
            seed=self.seed + len(self.sites),
        )
        self.sites.append(site)
        return site

    def _usable_condition_columns(self, table: Table) -> list[str] | None:
        if self.condition_columns is None:
            return None
        usable = [name for name in self.condition_columns if name in table.schema]
        return usable or None

    # ------------------------------------------------------------------ #
    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def _require_sites(self) -> None:
        if len(self.sites) < 2:
            raise RuntimeError("federated training needs at least two sites")

    def _initialise_global(self) -> None:
        if self._global_generator is None:
            generator_state, discriminator_state = self.sites[0].get_state()
            self._global_generator = copy_state(generator_state)
            self._global_discriminator = copy_state(discriminator_state)

    def _ensure_transport(self) -> tuple[FlatChannel, FlatChannel]:
        """Open both parameter channels once and install any new site."""
        if self._channels is None:
            self._channels = (
                FlatChannel(self.executor, self._global_generator),
                FlatChannel(self.executor, self._global_discriminator),
            )
        for site in self.sites:
            if site.site_id not in self._site_refs:
                self._site_refs[site.site_id] = self.executor.install(site)
        return self._channels

    def _select_sites(self) -> list[int]:
        """Seeded per-round site subset (indices into ``self.sites``).

        At ``client_fraction == 1.0`` every site participates and *no* RNG
        draw is consumed, keeping pre-subsampling seeded runs bit-identical.
        Below 1.0 the subset is a pure function of the coordinator seed and
        the round index, so serial and process-pool runs select the same
        sites (the selection happens in the parent, before dispatch).
        """
        if self.client_fraction >= 1.0:
            return list(range(len(self.sites)))
        count = max(1, int(round(self.client_fraction * len(self.sites))))
        indices = self.rng.choice(len(self.sites), size=count, replace=False)
        return sorted(int(i) for i in indices)

    def run_round(self, local_epochs: int = 1) -> FederatedKiNETGANRound:
        """One round: select sites, broadcast, local training, (DP) aggregation.

        Sites train through the coordinator's executor.  Each whole site
        lives in the execution plane (installed once) and a round exchanges
        only the per-site delta: mutable trainer state down and up,
        flattened weights through the shared broadcast / result buffers.
        A round on a process or thread pool is bit-identical to a serial
        one, and existing site handles keep pointing at the trained state.

        When tracing is enabled the round runs inside a
        ``federated.round`` span whose context rides the task envelope, so
        every worker-side ``federated.site_round`` span -- even in a
        process-pool worker -- parents to this round (see ``repro.obs``).
        """
        with span("federated.round", round=len(self.rounds)):
            return self._run_round(local_epochs)

    def _run_round(self, local_epochs: int) -> FederatedKiNETGANRound:
        """Dispatch one delta round, mirror it onto the parent sites, aggregate.

        The coordinator's own site objects are kept in lockstep with their
        worker-resident twins: the returned trainer state and the decoded
        weights are applied to them, so external site handles always see
        the trained state.  A site whose round still failed after every
        retry is rolled back to its pre-round snapshot (trainer state,
        history, broadcast weights): under the in-process executors the
        worker trains the parent's own site object, so a post-hoc deadline
        miss would otherwise leave a half-round behind in the authoritative
        state.
        """
        self._require_sites()
        self._initialise_global()
        assert self._global_generator is not None and self._global_discriminator is not None

        selected = self._select_sites()
        generator_channel, discriminator_channel = self._ensure_transport()
        generator_channel.publish(self._global_generator, len(selected))
        discriminator_channel.publish(self._global_discriminator, len(selected))
        # Captured before dispatch: under the in-process executors the
        # worker appends to the parent's own history object mid-map.
        history_lengths = [self.sites[index].history_lengths() for index in selected]
        tasks = [
            _SiteRoundTask(
                site=self._site_refs[self.sites[index].site_id],
                trainer_state=self.sites[index].trainer_state(),
                generator=generator_channel.slot(slot),
                discriminator=discriminator_channel.slot(slot),
                local_epochs=local_epochs,
            )
            for slot, index in enumerate(selected)
        ]
        survivors, dropped = map_with_quorum(
            self.executor,
            _run_site_round,
            tasks,
            [self.sites[index].site_id for index in selected],
            min_survivors=self.min_sites,
            timeout=self.task_timeout,
            retries=self.task_retries,
            backoff=self.retry_backoff,
            unit="site",
        )

        weights: list[float] = []
        metrics_list: list[dict] = []
        participants: list[str] = []
        surviving_slots = [slot for slot, _result in survivors]
        generator_rows = generator_channel.rows(surviving_slots)
        discriminator_rows = discriminator_channel.rows(surviving_slots)
        for row, (slot, (trainer_state, history_tail, metrics)) in enumerate(survivors):
            site = self.sites[selected[slot]]
            participants.append(site.site_id)
            site.load_trainer_state(trainer_state)
            site.apply_history_tail(history_lengths[slot], history_tail)
            # Mirror the worker's trained weights onto the parent site.
            generator_state, discriminator_state = site.get_state()
            generator_channel.codec.decode_into(generator_rows[row], generator_state)
            discriminator_channel.codec.decode_into(discriminator_rows[row], discriminator_state)
            weights.append(float(site.n_records))
            metrics_list.append(metrics)
        for slot, index in enumerate(selected):
            if slot in surviving_slots:
                continue
            # Roll a dropped site back to its pre-round snapshot: the task
            # still carries the trainer state captured before dispatch, the
            # channels still hold the round's global weights, and
            # an empty tail truncates any half-round history entries an
            # in-process attempt appended before failing.
            site = self.sites[index]
            site.load_trainer_state(tasks[slot].trainer_state)
            site.apply_history_tail(
                history_lengths[slot], {name: [] for name in site._HISTORY_FIELDS}
            )
            generator_state, discriminator_state = site.get_state()
            generator_channel.load_into(generator_state)
            discriminator_channel.load_into(discriminator_state)

        generator_losses = [m.get("generator_loss", float("nan")) for m in metrics_list]
        discriminator_losses = [m.get("discriminator_loss", float("nan")) for m in metrics_list]

        self._global_generator = self._aggregate(
            generator_channel, generator_rows, weights, self.dp_generator
        )
        self._global_discriminator = self._aggregate(
            discriminator_channel, discriminator_rows, weights, self.dp_discriminator
        )

        epsilon = None
        if self.dp_generator is not None:
            sample_rate = len(participants) / len(self.sites)
            self.dp_generator.record_round(sample_rate=sample_rate)
            self.dp_discriminator.record_round(sample_rate=sample_rate)
            epsilon = self.dp_generator.epsilon() + self.dp_discriminator.epsilon()

        round_info = FederatedKiNETGANRound(
            round_index=len(self.rounds),
            participants=participants,
            mean_generator_loss=safe_mean(generator_losses),
            mean_discriminator_loss=safe_mean(discriminator_losses),
            epsilon=epsilon,
            dropped=dropped,
        )
        self.rounds.append(round_info)
        return round_info

    def _aggregate(
        self,
        channel: FlatChannel,
        rows: np.ndarray,
        weights: list[float],
        dp_mechanism: DPFedAvgMechanism | None,
    ) -> StateDict:
        """The new global state from the survivors' trained ``rows``."""
        if dp_mechanism is None:
            return channel.codec.decode(weighted_average(rows, weights))
        # DP path: clip each site's *delta* against the broadcast global
        # state and noise the averaged delta.
        rows -= channel.broadcast
        dp_mechanism.clip_rows(rows, channel.codec)
        averaged = dp_mechanism.noise_average(
            weighted_average(rows, weights), n_clients=len(rows)
        )
        return channel.codec.decode(channel.broadcast + averaged)

    def run(self, num_rounds: int, local_epochs: int = 1) -> list[FederatedKiNETGANRound]:
        """Run several rounds; returns the per-round summaries."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        for _ in range(num_rounds):
            self.run_round(local_epochs=local_epochs)
        return self.rounds

    # ------------------------------------------------------------------ #
    def global_states(self) -> tuple[StateDict, StateDict]:
        """The current global (generator, discriminator) states."""
        if self._global_generator is None or self._global_discriminator is None:
            raise RuntimeError("run at least one round first")
        return copy_state(self._global_generator), copy_state(self._global_discriminator)

    def sample(self, n: int, rng: np.random.Generator | None = None) -> Table:
        """Pooled synthetic rows generated at the sites with the global weights.

        Each site generates a share proportional to its data size using its
        *local* condition distribution, which is exactly how deployment would
        look: the coordinator never needs a condition distribution of its own.
        """
        self._require_sites()
        n = require_row_count(n)
        if self._global_generator is None:
            raise RuntimeError("run at least one round before sampling")
        rng = rng if rng is not None else sampling_rng(self.seed)
        total_records = sum(site.n_records for site in self.sites)
        # Every site decodes its rows into the one pooled table, at its offset.
        pooled = self.transformer.decoded_rows(n)
        remaining = n
        for i, site in enumerate(self.sites):
            if i == len(self.sites) - 1:
                share = remaining
            else:
                share = int(round(n * site.n_records / total_records))
                share = min(share, remaining)
            if share <= 0:
                continue
            site.set_state(self._global_generator, self._global_discriminator)
            site.sample_into(share, rng, pooled, n - remaining)
            remaining -= share
        return pooled.table()
