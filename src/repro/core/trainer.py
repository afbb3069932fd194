"""The KiNETGAN training loop, expressed as an engine train step.

One training step follows the paper's framework (figure 1):

1. **Discriminator step(s)** -- sample a condition batch (training-by-
   sampling), fetch matching real rows, generate fakes under the same
   conditions, and update the real/fake discriminator ``D_M`` with binary
   cross entropy.
2. **Knowledge head step** -- update the learned head of ``D_KG`` on valid
   combinations (real rows, KG-enumerated combinations) versus invalid ones
   (corrupted rows, generated rows the exact KG query rejects).
3. **Generator step** -- generate a fresh fake batch and descend the sum of
   (a) the non-saturating adversarial loss through ``D_M``, (b) the
   knowledge loss through ``D_KG``'s head weighted by ``lambda_knowledge``
   (equation 3/4), and (c) the condition cross-entropy penalty weighted by
   ``lambda_condition`` (section III-A-2).

The epoch/batch iteration, metric averaging, periodic logging, early
stopping and checkpointing all live in :class:`repro.engine.TrainingEngine`;
this module only contributes the model-specific :class:`KiNETGANStep` and
keeps the public :class:`TrainingHistory` record format stable.
"""

from __future__ import annotations

import collections
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.config import KiNETGANConfig
from repro.core.discriminator import DataDiscriminator
from repro.core.generator import ConditionalGenerator
from repro.core.kg_discriminator import KGRows, KnowledgeGuidedDiscriminator
from repro.core.losses import condition_penalty
from repro.engine import Callback, TrainingEngine, TrainStep, sampling_rng, seeded_rng
from repro.knowledge.reasoner import KGReasoner
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam
from repro.runtime.executor import default_worker_count, in_pool_worker
from repro.tabular.sampler import ConditionCodes, ConditionSampler
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer, DecodedRows

__all__ = ["TrainingHistory", "KiNETGANStep", "KiNETGANTrainer"]

#: Rows per share-path generator forward.  Swept 256/512/1024/2048 on the
#: train benchmark's 50k-row share with winners taken from the soft output
#: (256 and 512 tied, larger blocks lost) and again with winners taken from
#: the logits: over three 10-round alternating sweeps (2-core host, BLAS on
#: one thread) no size beat 512 in more than 8 of 10 rounds.
SHARE_BLOCK_ROWS = 512


def share_blocks(rows: int) -> list[tuple[int, int]]:
    """A share's ``(start, stop)`` row blocks; the remainder joins the last.

    BLAS rounding can depend on a product's row count (OpenBLAS runs 1-row
    products through gemv, small ones through another kernel), so no short
    tail runs alone: every row keeps the bits of one whole-share forward.
    """
    stops = [*range(SHARE_BLOCK_ROWS, rows - SHARE_BLOCK_ROWS + 1, SHARE_BLOCK_ROWS), rows]
    return list(zip([0, *stops[:-1]], stops))


#: Name prefix of the threads that help run share block forwards.
SHARE_THREAD_PREFIX = "share-block-"


def _share_threads() -> int:
    """Threads one share's block forwards may use: one per CPU this process
    may run on, or just the caller in a process-pool worker, whose sibling
    workers hold those CPUs (see :meth:`KiNETGANTrainer.iter_share_blocks`)."""
    return 1 if in_pool_worker() else default_worker_count()


_helpers: tuple[int, ThreadPoolExecutor] | None = None
_helpers_lock = threading.Lock()


def _share_helpers(size: int) -> ThreadPoolExecutor:
    """The process's pool of ``size`` share helper threads, started on
    demand and kept (see :meth:`KiNETGANTrainer.iter_share_blocks`)."""
    global _helpers
    with _helpers_lock:
        if _helpers is None or _helpers[0] != size:
            # A replaced pool winds down once its last share lets go of it.
            _helpers = (size, ThreadPoolExecutor(size, thread_name_prefix=SHARE_THREAD_PREFIX))
        return _helpers[1]


def _forget_share_helpers() -> None:
    global _helpers
    _helpers = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_share_helpers)


#: A share's conditions: integer codes whose blocks build their own one-hot
#: rows, or an explicit ``(rows, condition_dim)`` matrix sliced per block.
ShareConditions = ConditionCodes | np.ndarray


class _ShareBlock:
    """One share block: its rows, its noise and the outputs it is written into.

    Built on the calling thread, which draws the noise and allocates the
    outputs; :meth:`run` may then execute on any thread.  It builds the
    block's own one-hot condition rows, so no share holds a condition
    matrix longer than one block.
    """

    __slots__ = ("start", "stop", "noise", "winners", "scalars")

    def __init__(
        self, trainer: "KiNETGANTrainer", start: int, stop: int, rng: np.random.Generator
    ) -> None:
        transformer, rows = trainer.transformer, stop - start
        self.start, self.stop = start, stop
        self.noise = rng.normal(size=(rows, trainer.config.embedding_dim))
        self.winners = np.empty((rows, transformer.softmax_layout().n_blocks), dtype=np.intp)
        self.scalars = np.empty((rows, transformer.tanh_columns().size))

    def run(self, trainer: "KiNETGANTrainer", condition: ShareConditions) -> None:
        if isinstance(condition, ConditionCodes):
            rows = condition.rows(self.start, self.stop)
        else:
            rows = condition[self.start : self.stop]
        trainer._share_forward(self.noise, rows, self.winners, self.scalars)
        self.noise = None


@dataclass
class TrainingHistory:
    """Per-epoch loss traces recorded during training."""

    generator_loss: list[float] = field(default_factory=list)
    discriminator_loss: list[float] = field(default_factory=list)
    condition_loss: list[float] = field(default_factory=list)
    knowledge_loss: list[float] = field(default_factory=list)
    validity_rate: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.generator_loss)

    def last(self) -> dict[str, float]:
        """The most recent epoch's losses as a dict (empty if untrained)."""
        if not self.generator_loss:
            return {}
        return {
            "generator_loss": self.generator_loss[-1],
            "discriminator_loss": self.discriminator_loss[-1],
            "condition_loss": self.condition_loss[-1],
            "knowledge_loss": self.knowledge_loss[-1],
            "validity_rate": self.validity_rate[-1] if self.validity_rate else float("nan"),
        }


class _HistoryAdapter(Callback):
    """Mirrors the engine's epoch metrics into the public history lists."""

    def __init__(self, history: TrainingHistory) -> None:
        self.history = history

    def on_epoch_end(self, engine: TrainingEngine, epoch: int, metrics: dict) -> None:
        self.history.discriminator_loss.append(metrics["discriminator_loss"])
        self.history.generator_loss.append(metrics["generator_loss"])
        self.history.condition_loss.append(metrics["condition_loss"])
        self.history.knowledge_loss.append(metrics["knowledge_loss"])


class KiNETGANStep(TrainStep):
    """One KiNETGAN mini-batch update (paper figure 1), engine-pluggable."""

    def __init__(self, trainer: "KiNETGANTrainer", real_matrix: np.ndarray, table: Table) -> None:
        self.trainer = trainer
        self.real_matrix = real_matrix
        # Real rows never change across a fit, so their exact KG validity
        # and KG-column codes are computed once per table instead of once
        # per step; each step then just gathers by the sampled row indices.
        self._kg_valid: np.ndarray | None = None
        self._kg_rows: KGRows | None = None
        kg = trainer.kg_discriminator
        if kg is not None and kg.head is not None:
            self._kg_valid, self._kg_rows = trainer.kg_arrays(table)

    def step(self, rng: np.random.Generator, batch_index: int) -> dict[str, float]:
        trainer = self.trainer
        config = trainer.config
        d_loss = 0.0
        for _ in range(config.discriminator_steps):
            cond = trainer.sampler.sample(config.batch_size, rng)
            real = self.real_matrix[cond.row_indices]
            noise = rng.normal(size=(config.batch_size, config.embedding_dim))
            fake = trainer.generator.forward(noise, cond.vector, training=True)
            d_loss += trainer._discriminator_step(real, fake, cond.vector)
        d_loss /= config.discriminator_steps

        k_loss = 0.0
        if self._kg_rows is not None:
            # The head trains on the last d-step's conditions, real rows and fakes.
            idx = cond.row_indices
            k_loss = trainer.kg_discriminator.train_step(
                real_table=None,
                real_matrix=real,
                fake_matrix=fake,
                negatives=config.knowledge_negatives_per_batch,
                real_valid=self._kg_valid[idx],
                real_rows=self._kg_rows.take(idx[: max(config.knowledge_negatives_per_batch, 1)]),
            )

        g_loss, c_loss, kg_gen_loss = trainer._generator_step(config)
        return {
            "discriminator_loss": d_loss,
            "generator_loss": g_loss,
            "condition_loss": c_loss,
            "knowledge_loss": k_loss + kg_gen_loss,
        }

    def checkpoint_targets(self) -> dict[str, Sequential]:
        targets = {
            "generator": self.trainer.generator.network,
            "discriminator": self.trainer.discriminator.network,
        }
        kg = self.trainer.kg_discriminator
        if kg is not None and kg.head is not None:
            targets["kg_head"] = kg.head
        return targets


class KiNETGANTrainer:
    """Orchestrates KiNETGAN training over a fitted transformer and sampler."""

    def __init__(
        self,
        config: KiNETGANConfig,
        transformer: DataTransformer,
        sampler: ConditionSampler,
        reasoner: KGReasoner | None = None,
        generator: ConditionalGenerator | None = None,
        discriminator: DataDiscriminator | None = None,
    ) -> None:
        """``generator`` / ``discriminator`` may be supplied pre-built (the
        OCTGAN baseline injects ODE-augmented networks this way); by default
        the standard residual generator and MLP discriminator are created."""
        self.config = config
        self.transformer = transformer
        self.sampler = sampler
        self.rng = seeded_rng(config.seed)

        if generator is None:
            generator = ConditionalGenerator(
                noise_dim=config.embedding_dim,
                condition_dim=sampler.condition_dim,
                transformer=transformer,
                hidden_dims=config.generator_dims,
                gumbel_tau=config.gumbel_tau,
                rng=self.rng,
                dtype=config.np_dtype,
            )
        self.generator = generator
        if discriminator is None:
            discriminator = DataDiscriminator(
                data_dim=transformer.output_dim,
                condition_dim=sampler.condition_dim,
                hidden_dims=config.discriminator_dims,
                dropout=config.dropout,
                rng=self.rng,
                dtype=config.np_dtype,
            )
        self.discriminator = discriminator
        self.kg_discriminator: KnowledgeGuidedDiscriminator | None = None
        if reasoner is not None and config.use_knowledge_discriminator:
            self.kg_discriminator = KnowledgeGuidedDiscriminator(
                reasoner=reasoner,
                transformer=transformer,
                hidden_dims=config.knowledge_head_dims,
                learning_rate=config.discriminator_lr,
                learned_head=True,
                rng=self.rng,
                dtype=config.np_dtype,
            )

        self._opt_g = Adam(self.generator.parameters(), lr=config.generator_lr, betas=(0.5, 0.9))
        self._opt_d = Adam(
            self.discriminator.parameters(), lr=config.discriminator_lr, betas=(0.5, 0.9)
        )
        self._bce = BinaryCrossEntropy(from_logits=True)
        # Constant BCE target arrays, cached per logits shape: the three
        # discriminator/generator BCE terms per step would otherwise rebuild
        # identical ones/zeros batches thousands of times per fit.
        self._bce_targets: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self.history = TrainingHistory()
        self.engine: TrainingEngine | None = None
        self._kg_cache: tuple[Table, np.ndarray, KGRows] | None = None

    def __getstate__(self) -> dict:
        # The KG arrays are a pure function of the table and are rebuilt on
        # the first fit after unpickling, so installs never ship them.
        state = self.__dict__.copy()
        del state["_kg_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _kg_cache=None)

    def kg_arrays(self, table: Table) -> tuple[np.ndarray, KGRows]:
        """Exact KG validity and KG-column rows of ``table``, memoized per table.

        A federated site fits the same table object every round, so its
        rows are scored once per process instead of once per round.
        Tables are immutable, so the identity check is a complete key.
        """
        cached = self._kg_cache
        if cached is None or cached[0] is not table:
            kg = self.kg_discriminator
            cached = (table, kg.hard_scores(table), kg.kg_rows(table))
            self._kg_cache = cached
        return cached[1], cached[2]

    # ------------------------------------------------------------------ #
    def fit(self, table: Table) -> TrainingHistory:
        """Train on ``table`` (already the table the sampler was built from)."""
        config = self.config
        real_matrix = self.transformer.transform(table, rng=self.rng)
        step = KiNETGANStep(self, real_matrix, table=table)
        callbacks: list[Callback] = [_HistoryAdapter(self.history)]
        callbacks += config.engine_callbacks(
            prefix="[KiNETGAN]",
            labels={
                "discriminator_loss": "D",
                "generator_loss": "G",
                "condition_loss": "cond",
                "knowledge_loss": "KG",
            },
            extra=self._log_validity,
            monitor="generator_loss",
        )
        self.engine = TrainingEngine(
            step,
            epochs=config.epochs,
            batch_size=config.batch_size,
            n_rows=table.n_rows,
            rng=self.rng,
            callbacks=callbacks,
        )
        try:
            self.engine.run()
        finally:
            self.release_scratch()
        return self.history

    def release_scratch(self) -> None:
        """Free the step scratch of every trained network and optimizer.

        Training scratch is fit-scoped: ``fit`` calls this when it returns,
        so a fitted model, and a federated site between its rounds, keeps
        no step buffers; the next fit grows them again.  Sampling runs
        eval forwards, which never use this scratch.
        """
        kg = self.kg_discriminator
        networks = [self.generator.network, self.discriminator.network]
        optimizers = [self._opt_g, self._opt_d]
        if kg is not None and kg.head is not None:
            networks.append(kg.head)
            optimizers.append(kg._optimizer)
        for network in networks:
            network.release_scratch()
        for optimizer in optimizers:
            optimizer.release_scratch()

    def _log_validity(self, engine: TrainingEngine, epoch: int, metrics: dict) -> dict:
        """Extra metric hook for the engine logger: KG validity (recorded)."""
        validity = self._estimate_validity()
        self.history.validity_rate.append(validity)
        return {"validity": validity}

    # ------------------------------------------------------------------ #
    def _targets(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(ones, zeros)`` BCE target arrays for ``shape``.

        Built in the discriminator's dtype so the BCE loss (which follows
        its prediction's dtype) never re-casts them per step.
        """
        cached = self._bce_targets.get(shape)
        if cached is None:
            dtype = self.discriminator.network.dtype
            cached = (np.ones(shape, dtype=dtype), np.zeros(shape, dtype=dtype))
            self._bce_targets[shape] = cached
        return cached

    def _discriminator_step(
        self, real: np.ndarray, fake: np.ndarray, condition: np.ndarray
    ) -> float:
        self.discriminator.zero_grad()
        logits_real = self.discriminator.forward(real, condition, training=True)
        ones, zeros = self._targets(logits_real.shape)
        loss_real = self._bce.forward(logits_real, ones)
        self.discriminator.backward(self._bce.backward())
        logits_fake = self.discriminator.forward(fake, condition, training=True)
        loss_fake = self._bce.forward(logits_fake, zeros)
        self.discriminator.backward(self._bce.backward())
        self._opt_d.step()
        return loss_real + loss_fake

    def _generator_step(self, config: KiNETGANConfig) -> tuple[float, float, float]:
        cond = self.sampler.sample(config.batch_size, self.rng)
        noise = self.rng.normal(size=(config.batch_size, config.embedding_dim))
        fake = self.generator.forward(noise, cond.vector, training=True)

        # Adversarial (non-saturating) term through D_M.
        logits_fake = self.discriminator.forward(fake, cond.vector, training=True)
        ones, _zeros = self._targets(logits_fake.shape)
        adv_loss = self._bce.forward(logits_fake, ones)
        grad_fake = self.discriminator.backward(self._bce.backward())
        self.discriminator.zero_grad()

        # Condition penalty (section III-A-2).
        cond_loss, grad_cond = condition_penalty(fake, cond.vector, self.sampler, self.transformer)

        # Knowledge term through the learned head of D_KG (equation 3), plus
        # the exact valid-set penalty obtained by querying the KG with the
        # sampled condition values (section III-B-1).
        kg_loss = 0.0
        grad_kg: np.ndarray | float = 0.0
        if self.kg_discriminator is not None and config.lambda_knowledge > 0:
            kg_loss, grad_kg = self.kg_discriminator.generator_loss_and_grad(fake)
            if config.use_valid_set_loss:
                vs_loss, grad_vs = self.kg_discriminator.valid_set_loss_and_grad(
                    fake, cond
                )
                kg_loss += vs_loss
                grad_kg += grad_vs

        # ``grad_fake + lambda_c * grad_cond + lambda_k * grad_kg`` fused in
        # place through ``grad_cond`` (both penalty grads are freshly
        # allocated per call).  IEEE addition is commutative bitwise, so
        # accumulating left-to-right into the scaled condition grad matches
        # the reference expression exactly while dropping three batch-sized
        # temporaries per generator step.
        np.multiply(grad_cond, config.lambda_condition, out=grad_cond)
        grad_cond += grad_fake
        if isinstance(grad_kg, np.ndarray):
            np.multiply(grad_kg, config.lambda_knowledge, out=grad_kg)
            grad_cond += grad_kg
        else:
            grad_cond += config.lambda_knowledge * grad_kg
        total_grad = grad_cond
        self.generator.zero_grad()
        self.generator.backward(total_grad)
        self._opt_g.step()
        return adv_loss, cond_loss, kg_loss

    # ------------------------------------------------------------------ #
    def _estimate_validity(self, n: int = 256) -> float:
        """Fraction of freshly generated rows that satisfy the knowledge graph.

        The probe draws from its own seeded stream, never the trainer's, so
        logging it (``verbose`` / ``log_every``) leaves a seeded fit unchanged.
        """
        if self.kg_discriminator is None:
            return float("nan")
        matrix = self.generate_matrix(n, rng=sampling_rng(self.config.seed))
        return self.kg_discriminator.validity_rate(matrix)

    def generate_matrix(
        self,
        n: int,
        conditions: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """``n`` generated rows as a float64 matrix with hardened one-hot
        blocks, rebuilt from the share path's winners and tanh columns."""
        rng = rng if rng is not None else self.rng
        if conditions is None:
            conditions = self.sampler.empirical_codes(n, rng)
        if len(conditions) != n:
            raise ValueError("conditions batch size does not match n")
        layout = self.transformer.softmax_layout()
        matrix = np.zeros((n, self.transformer.output_dim))
        for start, stop, winners, scalars in self.iter_share_blocks(conditions, rng):
            block = matrix[start:stop]
            block[:, self.transformer.tanh_columns()] = scalars
            block[np.arange(stop - start)[:, None], layout.columns[layout.starts + winners]] = 1.0
        return matrix

    def share_into(
        self,
        condition: ShareConditions,
        rng: np.random.Generator,
        out: DecodedRows,
        at: int = 0,
    ) -> None:
        """Decode a whole share into ``out`` from row ``at`` on, block by
        block as each is yielded (see :meth:`iter_share_blocks`)."""
        for start, _, winners, scalars in self.iter_share_blocks(condition, rng):
            out.write(at + start, winners, scalars)

    def iter_share_blocks(
        self, condition: ShareConditions, rng: np.random.Generator
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """The blocked share step: ``(start, stop, winners, scalars)`` per block.

        Each block draws its rows' noise from ``rng`` (chunked normal draws
        are stream-identical to one draw), builds its rows' one-hot
        conditions (from :class:`ConditionCodes`, or a slice of a given
        matrix) and runs the eval forward up to the logits.  The winners are the soft
        output's per-block argmax, ties to the lowest index -- exactly what
        hardening the eval forward picks -- without building that output:
        :meth:`BlockLayout.softmax_argmax` takes each winner from the logits
        where a margin of ``2**10`` ulps proves it is the soft argmax, and
        runs the softmax only on the rows it cannot prove.  The scalars are
        the tanh of the same logits, the bits the eval forward writes.

        Threading rule (the one statement of it; the serving and
        architecture docs link here).  A share of one block runs inline on
        the calling thread and starts no thread, and so does every share in
        a worker process of a ``ProcessExecutor`` pool, whose sibling
        workers already hold the other CPUs.  A longer share overlaps
        its block forwards on up to one thread per CPU this process may run
        on: the caller plus the process's share helpers, one pool of that
        many threads minus one, started on first use and then kept for
        every later share.  Every block's noise is drawn from ``rng`` on
        the calling thread, in block order, so the stream is the one-thread
        stream; at most ``2 * threads`` blocks are drawn and not yet
        yielded, each handed to the helpers; a block builds its one-hot
        condition rows on whichever thread runs its forward; the caller,
        waiting for the next block, runs the oldest ones no helper has
        started; and blocks are yielded in block order, into arrays the
        caller allocated.  Consumers decode each yielded block on the
        calling thread, straight into their preallocated output rows
        (:meth:`share_into`, ``sample_stream``), so a share never holds its
        whole condition, winner or scalar matrix.  Closing the iterator
        early drops its unstarted blocks and waits for its running ones.
        Eval forwards and ``softmax_argmax`` keep no state, so the blocks'
        bits do not depend on which thread ran them.

        The helpers outlive a share on purpose.  Threads started per share
        each took a glibc malloc arena from the free list and left its
        block temporaries there as untrimmed free memory, which raised
        serve's peak RSS by 7%; and concurrent callers in one process (a
        ``ServingPool`` or ``ThreadExecutor`` worker per share) share the
        one pool instead of each adding their own helpers.
        """
        blocks = share_blocks(len(condition))
        threads = min(_share_threads(), len(blocks))
        helpers = _share_helpers(_share_threads() - 1) if threads > 1 else None
        ahead: collections.deque[tuple[_ShareBlock, Future | None]] = collections.deque()
        drawn = 0
        try:
            for _ in blocks:
                while drawn < len(blocks) and len(ahead) < 2 * threads:
                    # Noise is drawn here, on the calling thread, in block order.
                    block = _ShareBlock(self, *blocks[drawn], rng)
                    job = helpers.submit(block.run, self, condition) if helpers else None
                    ahead.append((block, job))
                    drawn += 1
                block, job = ahead.popleft()
                if job is None:
                    block.run(self, condition)
                else:
                    # Until a helper finishes this block, the caller runs the
                    # oldest blocks no helper has started (this one included).
                    for other, other_job in [(block, job), *ahead]:
                        if job.done():
                            break
                        if not other_job.cancelled() and other_job.cancel():
                            other.run(self, condition)
                    if not job.cancelled():
                        job.result()
                yield block.start, block.stop, block.winners, block.scalars
        finally:
            # Closed early: drop the blocks no helper has started and wait
            # for the running ones, so no block outlives the iterator.
            wait([job for _, job in ahead if job is not None and not job.cancel()])

    def _share_forward(
        self, noise: np.ndarray, condition: np.ndarray, winners: np.ndarray, scalars: np.ndarray
    ) -> None:
        """One block's eval forward, written into ``winners`` and ``scalars``."""
        logits = self.generator.logits(noise, condition)
        layout = self.transformer.softmax_layout()
        layout.softmax_argmax(logits, self.generator.activation.tau, out=winners)
        np.tanh(logits[:, self.transformer.tanh_columns()], out=scalars)
