"""The knowledge-guided discriminator ``D_KG`` (paper section III-B-1).

``D_KG`` judges whether a generated attribute combination is *valid*
according to the NetworkKG, independently of whether it looks statistically
real.  It has two parts:

* a **hard rule check**: the exact 0/1 validity of a row under the
  reasoner's constraint table (the paper's ``Q`` query), read from the
  tables :meth:`~repro.knowledge.reasoner.KGReasoner.bind` evaluates once
  over the transformer's category lists;
* a **learned refinement head**: a small MLP over the transformed blocks of
  the KG-constrained columns.  Each step it sees three kinds of rows: the
  real batch, labelled with its exact validity; corrupted copies of real
  rows that the hard check rejects, labelled 0; and the generated batch,
  labelled with its exact validity.  No row is enumerated from the graph.
  The head provides the *differentiable* path through which the generator
  receives the knowledge signal (equation 3: ``D_C = D_KG + D_M``).

The head trains on integer codes, never on record dicts: the KG columns of
the real rows arrive as :class:`KGRows` (encoder codes of the categorical
KG columns plus the continuous KG values), are corrupted, scored against
the bound tables and encoded straight into the head's input.
Seeded fits depend bit for bit on the order of its draws on the shared
``rng`` (the trainer's stream):

1. per corrupted row, in row order: one standard-uniform coin (only when
   the KG has both categorical and continuous columns; below 0.7 picks a
   categorical one), one ``integers`` column pick, then one ``integers``
   category draw or one ``uniform(low, high)`` value draw;
2. then, if any corrupted row is KG-invalid, one ``uniform(size=m)`` block
   (``m`` invalid rows) per mode-normalised column in schema order, KG
   column or not -- exactly the draws ``DataTransformer.transform`` makes
   when it encodes those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.knowledge.reasoner import KGReasoner
from repro.knowledge.validator import BatchValidator
from repro.neural.layers import Dense, LeakyReLU
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam
from repro.tabular.encoders import MinMaxScaler, ModeSpecificNormalizer
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

__all__ = ["KGRows", "KnowledgeGuidedDiscriminator"]

#: Semantic roles whose columns the knowledge graph constrains.
_KG_ROLES = (
    "event_type",
    "protocol",
    "source_ip",
    "destination_ip",
    "source_port",
    "destination_port",
)

#: Widest valid set the penalty sums with one padded gather.  numpy sums a
#: row of up to 7 terms left to right, and a multi-row masked gather is
#: summed left to right too, so zero padding leaves every mass bit-identical
#: to the per-event sum; wider single-row sums are pairwise.
_PADDED_MAX = 7


@dataclass(frozen=True)
class KGRows:
    """The KG-constrained columns of a batch of rows, as arrays.

    ``codes`` holds the encoder codes of the categorical KG columns (-1 for
    a value outside the encoder's categories), ``labels`` their raw values
    (``None`` when every code is known, as for rows decoded from a matrix)
    and ``values`` the continuous KG columns, each in the discriminator's
    column order.
    """

    codes: np.ndarray
    labels: np.ndarray | None
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def take(self, index) -> "KGRows":
        labels = None if self.labels is None else self.labels[index]
        return KGRows(self.codes[index], labels, self.values[index])


class KnowledgeGuidedDiscriminator:
    """Dual (hard + learned) validity discriminator."""

    def __init__(
        self,
        reasoner: KGReasoner,
        transformer: DataTransformer,
        hidden_dims: tuple[int, ...] = (64,),
        learning_rate: float = 2e-3,
        learned_head: bool = True,
        rng: np.random.Generator | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.reasoner = reasoner
        self.validator = BatchValidator(reasoner)
        self.transformer = transformer
        self.learned_head = learned_head
        self.rng = rng if rng is not None else np.random.default_rng()

        schema_names = set(transformer.schema.names)
        self.kg_columns: list[str] = [
            reasoner.field_map[role]
            for role in _KG_ROLES
            if reasoner.field_map.get(role) in schema_names
        ]
        if not self.kg_columns:
            raise ValueError(
                "none of the knowledge-graph roles map to a column of the table schema"
            )
        self._event_column = reasoner.field_map["event_type"]
        schema = transformer.schema
        self._categorical_kg = [n for n in self.kg_columns if schema.column(n).is_categorical]
        self._continuous_kg = [n for n in self.kg_columns if schema.column(n).is_continuous]
        #: The reasoner's constraint table over the categorical KG columns'
        #: categories (``None`` when the event column is not one of them).
        self._bound = None
        if self._event_column in self._categorical_kg:
            self._bound = reasoner.bind(
                {n: transformer.encoder(n).categories for n in self._categorical_kg}
            )
        #: Corruption domains: schema categories with their encoder codes,
        #: and ``(low, high)`` value bounds.
        self._category_draws = [
            (spec.categories, transformer.encoder(spec.name).codes(list(spec.categories)))
            for spec in map(schema.column, self._categorical_kg)
        ]
        self._value_draws = [
            (
                spec.minimum if spec.minimum is not None else 0.0,
                spec.maximum if spec.maximum is not None else 65535.0,
            )
            for spec in map(schema.column, self._continuous_kg)
        ]
        #: Each KG column's transformed layout, the matrix columns the head
        #: reads (in ``kg_columns`` order) and each column's offset in them.
        self._kg_infos = {n: transformer.column_info(n) for n in self.kg_columns}
        infos = list(self._kg_infos.values())
        self._kg_index = np.concatenate([np.arange(i.start, i.end) for i in infos])
        offsets = np.cumsum([0] + [i.dim for i in infos[:-1]])
        self._kg_offsets = dict(zip(self.kg_columns, offsets.tolist()))
        self.input_dim = len(self._kg_index)

        self.head: Sequential | None = None
        self._optimizer: Adam | None = None
        self._loss = BinaryCrossEntropy(from_logits=True)
        if learned_head:
            layers = []
            width = self.input_dim
            for hidden in hidden_dims:
                layers.append(Dense(width, hidden, rng=self.rng, init="he", dtype=dtype))
                layers.append(LeakyReLU(0.2))
                width = hidden
            layers.append(Dense(width, 1, rng=self.rng, init="glorot", dtype=dtype))
            self.head = Sequential(layers)
            self.head.consolidate()
            self._optimizer = Adam(self.head.parameters(), lr=learning_rate, betas=(0.5, 0.9))

    # ------------------------------------------------------------------ #
    # Hard (exact) validity
    # ------------------------------------------------------------------ #
    def hard_scores(self, table: Table) -> np.ndarray:
        """Exact 0/1 validity of decoded records (the KG query ``Q``)."""
        return self.validator.table_scores(table)

    def _rows_valid(self, rows: KGRows) -> np.ndarray:
        """Exact per-row validity of :class:`KGRows` (``is_valid``'s rules).

        Rows whose categorical KG columns all hold known codes are resolved
        by gathers from the bound constraint tables, plus the reasoner's
        family predicates on the continuous KG columns; rows with a -1 code
        (and every row when no categorical event column was bound) go
        through one batched ``validity_mask`` call on their raw values.
        """
        bound = self._bound
        if bound is None:
            return self._reasoner_valid(rows)
        codes = rows.codes
        events = codes[:, self._categorical_kg.index(self._event_column)]
        valid = bound.known[events]
        for j, column in enumerate(self._categorical_kg):
            if column in bound.tables:
                valid &= bound.tables[column][events, codes[:, j]]
        for j, column in enumerate(self._continuous_kg):
            valid &= bound.column_valid(column, events, rows.values[:, j])
        if rows.labels is not None:
            unknown = (codes < 0).any(axis=1)
            if unknown.any():
                valid[unknown] = self._reasoner_valid(rows.take(unknown))
        return valid

    def _reasoner_valid(self, rows: KGRows) -> np.ndarray:
        columns = {}
        for j, name in enumerate(self._categorical_kg):
            if rows.labels is None:
                columns[name] = self.transformer.encoder(name).decode(rows.codes[:, j])
            else:
                columns[name] = rows.labels[:, j]
        columns.update({name: rows.values[:, j] for j, name in enumerate(self._continuous_kg)})
        return self.reasoner.validity_mask(columns)

    def _matrix_rows(self, matrix: np.ndarray) -> KGRows:
        """The KG columns of transformed rows, decoded with the exact
        arithmetic of ``inverse_transform`` -- per-block argmax codes and
        ``clip(clip(alpha) * 4 * sigma + mu)`` values -- without decoding
        the rest of the row or materialising a :class:`Table`."""
        tr = self.transformer
        codes = np.empty((len(matrix), len(self._categorical_kg)), dtype=np.int64)
        for j, name in enumerate(self._categorical_kg):
            info = self._kg_infos[name]
            codes[:, j] = matrix[:, info.start : info.end].argmax(axis=1)
        values = np.empty((len(matrix), len(self._continuous_kg)))
        for j, name in enumerate(self._continuous_kg):
            info, encoder, spec = self._kg_infos[name], tr.encoder(name), tr.schema.column(name)
            if isinstance(encoder, ModeSpecificNormalizer):
                modes = np.argmax(matrix[:, info.start + 1 : info.end], axis=1)
                alpha = np.clip(matrix[:, info.start], -1.0, 1.0)
                x = alpha * 4.0 * encoder.gmm.stds[modes] + encoder.gmm.means[modes]
            else:
                x = encoder.inverse_transform(matrix[:, info.start])
            lo = spec.minimum if spec.minimum is not None else -np.inf
            hi = spec.maximum if spec.maximum is not None else np.inf
            values[:, j] = np.clip(x, lo, hi)
        return KGRows(codes, None, values)

    def hard_scores_matrix(self, matrix: np.ndarray, batch_size: int = 0) -> np.ndarray:
        """Exact validity of transformed rows (decoded internally).

        Only the KG columns are decoded (see :meth:`_matrix_rows`); the
        result is bit-identical to scoring the fully decoded table.  With
        ``batch_size > 0`` the matrix is decoded and scored in chunks, which
        bounds peak memory when callers estimate validity over large
        generated samples.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if batch_size <= 0 or len(matrix) <= batch_size:
            chunks = [matrix]
        else:
            chunks = [matrix[i : i + batch_size] for i in range(0, len(matrix), batch_size)]
        scores = [self._rows_valid(self._matrix_rows(chunk)) for chunk in chunks]
        return np.concatenate(scores).astype(np.float64)

    def validity_rate(self, matrix: np.ndarray, batch_size: int = 512) -> float:
        """Mean exact validity of a transformed batch (scored in chunks).

        This is the one code path shared by the trainer's
        ``_estimate_validity`` and the engine's validity logging callback.
        """
        if len(matrix) == 0:
            return float("nan")
        return float(self.hard_scores_matrix(matrix, batch_size=batch_size).mean())

    # ------------------------------------------------------------------ #
    # Learned refinement head
    # ------------------------------------------------------------------ #
    def _extract(self, matrix: np.ndarray) -> np.ndarray:
        return self._head_input(self._kg_columns_of(matrix))

    def _kg_columns_of(self, matrix: np.ndarray) -> np.ndarray:
        # ``take`` returns C order (a fancy-indexed ``[:, index]`` would be
        # F order), so the head's matmuls always see one input layout.
        return matrix.take(self._kg_index, axis=1)

    def _head_input(self, kg_matrix: np.ndarray) -> np.ndarray:
        if self.head is not None and kg_matrix.dtype != self.head.dtype:
            # Real rows stay float64 in the transformer; a float32 head
            # rounds them once at its input boundary.
            kg_matrix = kg_matrix.astype(self.head.dtype)
        return kg_matrix

    def _scatter(self, grad_kg: np.ndarray, width: int) -> np.ndarray:
        grad = np.zeros((grad_kg.shape[0], width), dtype=grad_kg.dtype)
        grad[:, self._kg_index] = grad_kg
        return grad

    def head_logits(self, matrix: np.ndarray, training: bool = True) -> np.ndarray:
        """Learned validity logits for a batch of transformed rows."""
        if self.head is None:
            raise RuntimeError("learned head is disabled")
        return self.head.forward(self._extract(matrix), training=training)

    def head_scores(self, matrix: np.ndarray) -> np.ndarray:
        """Learned validity probabilities in [0, 1]."""
        logits = self.head_logits(matrix, training=False)
        return 1.0 / (1.0 + np.exp(-np.clip(logits[:, 0], -60, 60)))

    # ------------------------------------------------------------------ #
    # Training data for the head
    # ------------------------------------------------------------------ #
    def kg_rows(self, table: Table, limit: int | None = None) -> KGRows:
        """The KG columns of ``table``'s first ``limit`` rows (default all)."""
        n = table.n_rows if limit is None else min(limit, table.n_rows)
        codes = np.empty((n, len(self._categorical_kg)), dtype=np.int64)
        labels = np.empty(codes.shape, dtype=object)
        for j, name in enumerate(self._categorical_kg):
            labels[:, j] = table.column(name)[:n]
            codes[:, j] = self.transformer.encoder(name).codes(labels[:, j])
        values = np.empty((n, len(self._continuous_kg)))
        for j, name in enumerate(self._continuous_kg):
            values[:, j] = table.column(name)[:n]
        return KGRows(codes, labels, values)

    def _corrupt(self, rows: KGRows) -> KGRows:
        """Copies of ``rows`` with one KG attribute each randomly perturbed
        (draw order: see the module docstring)."""
        codes, labels, values = rows.codes.copy(), rows.labels.copy(), rows.values.copy()
        rng = self.rng
        n_cat, n_cont = len(self._categorical_kg), len(self._continuous_kg)
        for i in range(len(codes)):
            # ``random()`` draws the same double as ``uniform()``, faster.
            if n_cat and (not n_cont or rng.random() < 0.7):
                j = rng.integers(0, n_cat)
                categories, category_codes = self._category_draws[j]
                k = rng.integers(0, len(categories))
                codes[i, j] = category_codes[k]
                labels[i, j] = categories[k]
            elif n_cont:
                j = rng.integers(0, n_cont)
                low, high = self._value_draws[j]
                values[i, j] = rng.uniform(low, high)
        return KGRows(codes, labels, values)

    def _encode_kg(self, rows: KGRows) -> np.ndarray:
        """Head-input block of ``rows``: ``transform`` of the full rows, KG
        columns only, with the same draws on ``rng`` (one ``uniform`` block
        per mode-normalised column, in schema order)."""
        out = np.zeros((len(rows), self.input_dim))
        for info in self.transformer.output_info:
            encoder = self.transformer.encoder(info.name)
            at = self._kg_offsets.get(info.name)
            if isinstance(encoder, ModeSpecificNormalizer):
                draws = self.rng.uniform(size=len(rows))
                if at is not None:
                    values = rows.values[:, self._continuous_kg.index(info.name)]
                    out[:, at : at + info.dim] = encoder.transform_with_draws(values, draws)
            elif at is None:
                continue
            elif isinstance(encoder, MinMaxScaler):
                out[:, at] = encoder.transform(rows.values[:, self._continuous_kg.index(info.name)])
            else:
                codes = rows.codes[:, self._categorical_kg.index(info.name)]
                known = np.nonzero(codes >= 0)[0]
                out[known, at + codes[known]] = 1.0
        return out

    def train_step(
        self,
        real_table: Table | None,
        real_matrix: np.ndarray,
        fake_matrix: np.ndarray | None,
        negatives: int = 64,
        real_valid: np.ndarray | None = None,
        real_rows: KGRows | None = None,
    ) -> float:
        """One optimisation step of the learned head.

        The head sees the real rows labelled with their exact validity,
        corrupted copies of the first ``negatives`` real rows that the hard
        check rejects (labelled 0), and the generated rows labelled with
        their exact validity.

        The real rows' exact validity and :class:`KGRows` never change
        across a fit, so the KiNETGAN trainer computes them once and passes
        per-batch gathers as ``real_valid`` / ``real_rows``; given
        ``real_table`` instead, the same arrays are computed from the table
        and the step takes the same path.
        """
        if self.head is None or self._optimizer is None:
            return 0.0
        limit = max(negatives, 1)
        if real_valid is None or real_rows is None:
            if real_table is None:
                raise ValueError(
                    "train_step needs real_table unless real_valid and real_rows are given"
                )
            if real_valid is None:
                real_valid = self.validator.table_scores(real_table)
            if real_rows is None:
                real_rows = self.kg_rows(real_table, limit)

        pool = self._corrupt(real_rows.take(slice(0, limit)))
        invalid = pool.take(~self._rows_valid(pool))
        inputs = [self._kg_columns_of(real_matrix)]
        targets = [real_valid[:, None]]
        if len(invalid):
            inputs.append(self._encode_kg(invalid))
            targets.append(np.zeros((len(invalid), 1)))
        if fake_matrix is not None and len(fake_matrix):
            inputs.append(self._kg_columns_of(fake_matrix))
            targets.append(self.hard_scores_matrix(fake_matrix)[:, None])

        logits = self.head.forward(self._head_input(np.concatenate(inputs)), training=True)
        loss = self._loss.forward(logits, np.concatenate(targets))
        self.head.zero_grad()
        self.head.backward(self._loss.backward())
        self._optimizer.step()
        return loss

    # ------------------------------------------------------------------ #
    # Valid-set constraint (the paper's direct KG query for condition C)
    # ------------------------------------------------------------------ #
    def _penalty_plans(self) -> list[tuple]:
        """Per constrained categorical column, ``(start, end, valid, pad)``.

        ``valid[e]`` holds the block-local indices of the categories the
        bound constraint table allows for event code ``e``; it is ``None``
        when that row is all-true or all-false, which carries no usable
        signal (unconstrained, unknown and ``None`` events).  ``pad`` is
        ``None`` when the widest set exceeds :data:`_PADDED_MAX`; otherwise
        it stacks the sets per event code, padded with the index one past
        the block, plus an all-padding last row that code -1 selects.
        """
        plans = getattr(self, "_penalty_plans_cache", None)
        if plans is None:
            plans = []
            tables = self._bound.tables if self._bound is not None else {}
            for column in self._categorical_kg:
                table = tables.get(column)
                if table is None:
                    continue
                info = self._kg_infos[column]
                valid = [
                    None if row.all() or not row.any() else np.nonzero(row)[0] for row in table
                ]
                widest = max((len(v) for v in valid if v is not None), default=0)
                if not widest:
                    continue
                pad = None
                if widest <= _PADDED_MAX:
                    pad = np.full((len(table) + 1, widest), info.dim, dtype=np.intp)
                    for e, v in enumerate(valid):
                        if v is not None:
                            pad[e, : len(v)] = v
                plans.append((info.start, info.end, valid, pad))
            self._penalty_plans_cache = plans
        return plans

    def _event_codes(self, condition_values) -> np.ndarray:
        """Event-type encoder codes of the condition rows (-1: none/unknown)."""
        from repro.tabular.sampler import ConditionBatch

        if isinstance(condition_values, ConditionBatch):
            try:
                return condition_values.column_codes(self._event_column)
            except KeyError:
                return np.full(len(condition_values), -1)
        events = [values.get(self._event_column) for values in condition_values]
        return self.transformer.encoder(self._event_column).codes(events)

    def valid_set_loss_and_grad(
        self, fake_matrix: np.ndarray, condition_values
    ) -> tuple[float, np.ndarray]:
        """Penalise generator probability mass on KG-invalid categories.

        Following section III-B-1, the knowledge graph is queried with the
        condition-vector values (in particular the event type) and returns,
        per KG-constrained attribute, the set of valid values.  The loss for
        each constrained one-hot block is ``-log`` of the generated
        probability mass inside the valid set, so the generator is pushed to
        place its mass on combinations the KG deems valid.  Unlike the
        learned refinement head this signal is exact from the first epoch.

        ``condition_values`` is a :class:`~repro.tabular.sampler.ConditionBatch`
        (the trainer's hot path, read through its event codes) or a list of
        per-row ``{attribute: value}`` dicts; events outside the transformer's
        categories are unconstrained.  Columns whose valid sets are narrow
        gather every row's mass at once; wider ones group rows per event.
        Either way the loss accumulates per column and per event in
        first-seen order.
        """
        n = fake_matrix.shape[0]
        if len(condition_values) != n:
            raise ValueError("condition_values length does not match the fake batch")
        events = self._event_codes(condition_values)
        codes, first = np.unique(events, return_index=True)
        groups = [(e, np.nonzero(events == e)[0]) for e in codes[np.argsort(first)] if e >= 0]

        grad = np.zeros_like(fake_matrix)
        total_loss = 0.0
        total_terms = 0
        eps = 1e-6
        for start, end, valid, pad in self._penalty_plans():
            width = end - start
            # The block gets one clipped copy, shared by every event (clip is
            # elementwise, so clip-then-select equals select-then-clip).
            if pad is not None:
                # Padding reads a zero column and writes a discarded one.
                block = np.zeros((n, width + 1), dtype=fake_matrix.dtype)
                np.clip(fake_matrix[:, start:end], eps, 1.0, out=block[:, :width])
                every, cols = np.arange(n)[:, None], pad[events]
                mass = block[every, cols].sum(axis=1)
                np.clip(mass, eps, 1.0, out=mass)
                gblock = np.zeros_like(block)
                gblock[every, cols] = -1.0 / mass[:, None]
                np.log(mass, out=mass)
                for e, rows in groups:
                    if valid[e] is not None:
                        total_loss += float(-mass[rows].sum())
                        total_terms += len(rows)
                grad[:, start:end] = gblock[:, :width]
                continue
            block = np.clip(fake_matrix[:, start:end], eps, 1.0)
            for e, rows in groups:
                local = valid[e]
                if local is None:
                    continue
                mass = block[rows][:, local].sum(axis=1)
                np.clip(mass, eps, 1.0, out=mass)
                # Events partition the rows, so each cell is written once.
                grad[rows[:, None], start + local[None, :]] = -1.0 / mass[:, None]
                np.log(mass, out=mass)
                total_loss += float(-mass.sum())
                total_terms += len(rows)
        if total_terms == 0:
            return 0.0, grad
        grad /= total_terms
        return total_loss / total_terms, grad

    # ------------------------------------------------------------------ #
    # Generator feedback
    # ------------------------------------------------------------------ #
    def generator_loss_and_grad(self, fake_matrix: np.ndarray) -> tuple[float, np.ndarray]:
        """Non-saturating validity loss and its gradient w.r.t. the fake batch.

        The generator is pushed to produce combinations the learned head
        deems valid; the gradient is scattered back to the full transformed
        width so the trainer can add it to the adversarial gradient.
        """
        if self.head is None:
            return 0.0, np.zeros_like(fake_matrix)
        logits = self.head.forward(self._extract(fake_matrix), training=True)
        target = np.ones_like(logits)
        loss = self._loss.forward(logits, target)
        grad_logits = self._loss.backward()
        self.head.zero_grad()
        grad_kg_input = self.head.backward(grad_logits)
        # Head gradients from this pass must not update the head itself.
        self.head.zero_grad()
        return loss, self._scatter(grad_kg_input, fake_matrix.shape[1])

    # ------------------------------------------------------------------ #
    def combined_scores(self, matrix: np.ndarray) -> np.ndarray:
        """``D_KG`` score per row: exact validity plus the learned probability.

        This is the quantity added to ``D_M`` in equation 3 when reporting
        discriminator scores; the hard part dominates (it is exact), the
        learned part keeps the signal smooth near the decision boundary.
        """
        hard = self.hard_scores_matrix(matrix)
        if self.head is None:
            return hard
        return 0.5 * (hard + self.head_scores(matrix))
