"""Condition vectors and training-by-sampling.

The KiNETGAN conditional generator (paper section III-A) conditions on the
one-hot concatenation of the discrete *conditional attributes*.  During
training, conditions are drawn so that minority values appear far more often
than their empirical frequency would allow (training-by-sampling), either by
log-frequency re-weighting (as in CTGAN) or by the paper's uniform draw over
the attribute's range.  The :class:`ConditionSampler` owns that logic and can
also find real rows that match a drawn condition so the discriminator sees
consistent (data, condition) pairs.

The sampler is fully vectorized: at construction every conditional column is
integer-coded once, matching real rows are grouped into CSR-style buckets
(one flat row-index array plus per-category offsets), and ``sample()`` /
``empirical_conditions()`` become a handful of batched RNG draws plus one
scatter write into the ``(batch, condition_dim)`` matrix -- no per-row
``Table.row`` dict building, no ``list.index`` lookups.  The seeded draws
are pinned by the golden test in ``tests/tabular/test_dataplane_vectorized.py``.

A generation-time share keeps its conditions as :class:`ConditionCodes`
(integer codes, never the full one-hot matrix): each share block builds
the one-hot rows of its own row range.
"""

from __future__ import annotations

import numpy as np

from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

__all__ = ["ConditionBatch", "ConditionCodes", "ConditionSampler"]


class ConditionBatch:
    """A batch of sampled conditions.

    Attributes
    ----------
    vector:
        ``(batch, condition_dim)`` one-hot concatenation over the conditional
        attributes (equation 2 of the paper).
    row_indices:
        Indices of real rows matching the condition (used by the
        discriminator's real batch).
    codes:
        ``(batch, n_conditional_columns)`` integer category codes, the
        native representation of the vectorized data plane (-1 marks a value
        outside the encoder's category list, shown as an all-zero block).
    pivot_indices:
        Per-row index (into the sampler's conditional columns) of the
        attribute whose value was explicitly (re)sampled.

    ``values`` (list of ``{attribute: value}`` dicts) and ``pivot_columns``
    (attribute names) are materialised lazily from the code arrays the first
    time they are read, so consumers that only need the arrays never pay for
    building per-row dictionaries.
    """

    def __init__(
        self,
        vector: np.ndarray,
        row_indices: np.ndarray,
        *,
        codes: np.ndarray,
        pivot_indices: np.ndarray,
        sampler: "ConditionSampler",
    ) -> None:
        self.vector = vector
        self.row_indices = row_indices
        self.codes = codes
        self.pivot_indices = pivot_indices
        self._sampler = sampler
        self._values: list[dict] | None = None
        self._pivot_columns: list[str] | None = None

    def __len__(self) -> int:
        return len(self.row_indices)

    def column_codes(self, column: str) -> np.ndarray:
        """Integer codes of one conditional attribute for the whole batch.

        -1 marks a value outside the category list.  Raises ``KeyError``
        when ``column`` is not conditional.
        """
        names = self._sampler.conditional_columns
        if column not in names:
            raise KeyError(f"{column!r} is not a conditional column")
        return self.codes[:, names.index(column)]

    @property
    def values(self) -> list[dict]:
        if self._values is None:
            self._values = self._sampler.values_from_codes(self.codes)
        return self._values

    @property
    def pivot_columns(self) -> list[str]:
        if self._pivot_columns is None:
            names = self._sampler.conditional_columns
            self._pivot_columns = [names[i] for i in self.pivot_indices]
        return self._pivot_columns


class ConditionCodes:
    """A share's conditions as integer codes, one-hot rows built on demand.

    Row ``i`` takes the code row ``codes[index[i]]``, or ``codes[0]`` for
    every row when ``index`` is ``None`` (a fixed condition).  A 50k-row
    share then holds one integer per row instead of a ``(50k,
    condition_dim)`` float matrix, and :meth:`rows` gives the one-hot rows
    of any range, bit-identical to the same range of :meth:`matrix`.
    """

    __slots__ = ("sampler", "codes", "index", "n")

    def __init__(
        self,
        sampler: "ConditionSampler",
        codes: np.ndarray,
        n: int,
        index: np.ndarray | None = None,
    ) -> None:
        self.sampler, self.codes, self.n, self.index = sampler, codes, n, index

    def __len__(self) -> int:
        return self.n

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The one-hot condition rows ``start:stop``."""
        if self.index is None:
            codes = np.broadcast_to(self.codes[0], (stop - start, self.codes.shape[1]))
        else:
            codes = self.codes[self.index[start:stop]]
        return self.sampler.vectors_from_codes(codes)

    def matrix(self) -> np.ndarray:
        """Every row's one-hot conditions: the materialised condition matrix."""
        return self.rows(0, self.n)


class ConditionSampler:
    """Draws condition vectors and matching real rows for GAN training."""

    def __init__(
        self,
        table: Table,
        transformer: DataTransformer,
        conditional_columns: list[str] | None = None,
        uniform_probability: float = 0.3,
        log_frequency: bool = True,
    ) -> None:
        """Parameters
        ----------
        table:
            The real training table.
        transformer:
            A :class:`DataTransformer` already fitted on ``table``; its
            one-hot encoders define the condition-vector layout.
        conditional_columns:
            The discrete attributes that form the condition vector.  Defaults
            to every categorical column in the schema.
        uniform_probability:
            Probability of replacing the pivot attribute's value with a
            uniform draw over its range (the paper's imbalance handling,
            section III-A-3).
        log_frequency:
            When not drawing uniformly, sample the pivot value from the
            log-frequency-smoothed empirical distribution (CTGAN) rather than
            the raw empirical distribution.
        """
        if not 0.0 <= uniform_probability <= 1.0:
            raise ValueError("uniform_probability must be in [0, 1]")
        self.table = table
        self.n_rows = table.n_rows
        self.transformer = transformer
        self.uniform_probability = uniform_probability
        self.log_frequency = log_frequency
        all_categorical = table.schema.categorical_names
        self.conditional_columns = (
            list(conditional_columns) if conditional_columns is not None else all_categorical
        )
        if not self.conditional_columns:
            raise ValueError("at least one conditional (categorical) column is required")
        for name in self.conditional_columns:
            if name not in all_categorical:
                raise ValueError(f"conditional column {name!r} is not categorical")

        # Per-column category bookkeeping: category lists, O(1) value->code
        # dicts, object arrays for batched decoding, per-row integer codes,
        # and CSR-style row buckets (rows sorted by code + per-code bounds).
        self._categories: dict[str, list] = {}
        self._category_index: dict[str, dict] = {}
        self._category_arrays: dict[str, np.ndarray] = {}
        self._category_probs: dict[str, np.ndarray] = {}
        self._category_cdfs: dict[str, np.ndarray] = {}
        self._bucket_rows: dict[str, np.ndarray] = {}
        self._bucket_bounds: dict[str, np.ndarray] = {}
        codes_by_column: list[np.ndarray] = []
        for name in self.conditional_columns:
            encoder = transformer.encoder(name)
            categories = list(encoder.categories)
            k = len(categories)
            index = {value: i for i, value in enumerate(categories)}
            self._categories[name] = categories
            self._category_index[name] = index
            array = np.empty(k, dtype=object)
            array[:] = categories
            self._category_arrays[name] = array

            get = index.get
            column = table.column(name)
            codes = np.fromiter(
                (get(value, -1) for value in column), dtype=np.int64, count=len(column)
            )
            codes_by_column.append(codes)

            known = codes >= 0
            counts = np.bincount(codes[known], minlength=k).astype(np.float64)
            if self.log_frequency:
                weights = np.log1p(counts)
            else:
                weights = counts.copy()
            if weights.sum() <= 0:
                weights = np.ones_like(weights)
            self._category_probs[name] = weights / weights.sum()
            self._category_cdfs[name] = _cdf(self._category_probs[name])

            order = np.argsort(codes[known], kind="stable")
            self._bucket_rows[name] = np.nonzero(known)[0][order]
            bounds = np.zeros(k + 1, dtype=np.int64)
            np.cumsum(counts.astype(np.int64), out=bounds[1:])
            self._bucket_bounds[name] = bounds

        #: (n_rows, n_conditional_columns) integer codes of the real table.
        self._codes = (
            np.stack(codes_by_column, axis=1)
            if codes_by_column
            else np.zeros((table.n_rows, 0), dtype=np.int64)
        )
        self._build_offsets()

    def _build_offsets(self) -> None:
        self._offsets: dict[str, int] = {}
        cursor = 0
        for name in self.conditional_columns:
            self._offsets[name] = cursor
            cursor += len(self._categories[name])
        self._condition_dim = cursor
        #: Column-aligned offsets of each one-hot block inside C.
        self._offset_array = np.asarray(
            [self._offsets[name] for name in self.conditional_columns], dtype=np.int64
        )

    # ------------------------------------------------------------------ #
    # Artifact-state protocol (repro.serve)
    # ------------------------------------------------------------------ #
    def artifact_state(self) -> dict:
        """Fitted state for the :mod:`repro.serve` artifact format.

        The integer-code tables are the sampler's whole working state: the
        per-column category lists (first-seen order), the training-by-sampling
        probabilities, the CSR row buckets and the ``(n_rows, n_columns)``
        code matrix.  The raw training table is deliberately *not* included:
        a restored sampler can draw conditions and condition vectors exactly
        (``sample`` / ``empirical_conditions`` / ``vector_from_values``) but
        cannot serve real rows (``real_batch`` raises).
        """
        return {
            "conditional_columns": list(self.conditional_columns),
            "uniform_probability": self.uniform_probability,
            "log_frequency": self.log_frequency,
            "n_rows": self.n_rows,
            "categories": {name: list(values) for name, values in self._categories.items()},
            "category_probs": {name: probs.copy() for name, probs in self._category_probs.items()},
            "bucket_rows": {name: rows.copy() for name, rows in self._bucket_rows.items()},
            "bucket_bounds": {
                name: bounds.copy() for name, bounds in self._bucket_bounds.items()
            },
            "codes": self._codes.copy(),
        }

    @classmethod
    def from_artifact_state(cls, state: dict, transformer: DataTransformer) -> "ConditionSampler":
        """Rebuild a sampler from :meth:`artifact_state` output (no table).

        States saved before the per-row legacy sampler was retired carry
        ``legacy_sampling: False``, which is accepted; a ``True`` value asked
        for a sampling path that no longer exists and raises ``ValueError``.
        """
        if state.get("legacy_sampling", False):
            raise ValueError(
                "sampler state requests legacy_sampling=True, a per-row sampling "
                "path this release no longer has"
            )
        sampler = cls.__new__(cls)
        sampler.table = None
        sampler.n_rows = int(state["n_rows"])
        sampler.transformer = transformer
        sampler.uniform_probability = float(state["uniform_probability"])
        sampler.log_frequency = bool(state["log_frequency"])
        sampler.conditional_columns = list(state["conditional_columns"])
        sampler._categories = {}
        sampler._category_index = {}
        sampler._category_arrays = {}
        for name, categories in state["categories"].items():
            categories = list(categories)
            sampler._categories[name] = categories
            sampler._category_index[name] = {value: i for i, value in enumerate(categories)}
            array = np.empty(len(categories), dtype=object)
            array[:] = categories
            sampler._category_arrays[name] = array
        sampler._category_probs = {
            name: np.asarray(probs, dtype=np.float64)
            for name, probs in state["category_probs"].items()
        }
        sampler._category_cdfs = {
            name: _cdf(probs) for name, probs in sampler._category_probs.items()
        }
        sampler._bucket_rows = {
            name: np.asarray(rows, dtype=np.int64) for name, rows in state["bucket_rows"].items()
        }
        sampler._bucket_bounds = {
            name: np.asarray(bounds, dtype=np.int64)
            for name, bounds in state["bucket_bounds"].items()
        }
        sampler._codes = np.asarray(state["codes"], dtype=np.int64)
        sampler._build_offsets()
        return sampler

    # ------------------------------------------------------------------ #
    @property
    def condition_dim(self) -> int:
        """Width of the condition vector C (equation 2)."""
        return self._condition_dim

    def categories(self, column: str) -> list:
        """Admissible values of a conditional attribute."""
        return list(self._categories[column])

    def condition_offset(self, column: str) -> int:
        """Start index of ``column``'s one-hot block inside C."""
        return self._offsets[column]

    def condition_slice(self, column: str) -> slice:
        start = self._offsets[column]
        return slice(start, start + len(self._categories[column]))

    # ------------------------------------------------------------------ #
    # Code-array helpers (the vectorized data plane's native currency)
    # ------------------------------------------------------------------ #
    def values_from_codes(self, codes: np.ndarray) -> list[dict]:
        """Materialise ``{attribute: value}`` dicts from a code array.

        Codes of -1 (values outside the encoder's category list) are left
        out of the corresponding dict, mirroring an all-zero block.
        """
        decoded = [
            self._category_arrays[name][codes[:, i]]
            for i, name in enumerate(self.conditional_columns)
        ]
        names = self.conditional_columns
        rows: list[dict] = []
        for r in range(codes.shape[0]):
            rows.append(
                {
                    name: decoded[i][r]
                    for i, name in enumerate(names)
                    if codes[r, i] >= 0
                }
            )
        return rows

    def vectors_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """One-hot condition matrix from a ``(batch, n_columns)`` code array."""
        batch = codes.shape[0]
        vectors = np.zeros((batch, self._condition_dim), dtype=np.float64)
        flat = self._offset_array[None, :] + codes
        known = codes >= 0
        row_index = np.broadcast_to(np.arange(batch)[:, None], codes.shape)
        vectors[row_index[known], flat[known]] = 1.0
        return vectors

    # ------------------------------------------------------------------ #
    def codes_from_values(self, values: dict) -> np.ndarray:
        """The code row of ``{attribute: value}``; missing attributes get -1."""
        codes = np.full(len(self.conditional_columns), -1, dtype=np.int64)
        for name, value in values.items():
            if name not in self._categories:
                raise KeyError(f"{name!r} is not a conditional column")
            code = self._category_index[name].get(value)
            if code is None:
                raise ValueError(f"value {value!r} not in categories of {name!r}")
            codes[self.conditional_columns.index(name)] = code
        return codes

    def vector_from_values(self, values: dict) -> np.ndarray:
        """Build a single condition vector from ``{attribute: value}``.

        Attributes missing from ``values`` get an all-zero block (meaning
        "unconstrained"), which is how generation-time conditioning on a
        subset of attributes is expressed.
        """
        return self.vectors_from_codes(self.codes_from_values(values)[None, :])[0]

    def values_from_vector(self, vector: np.ndarray) -> dict:
        """Decode a condition vector back into ``{attribute: value}``."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape[-1] != self._condition_dim:
            raise ValueError("condition vector has the wrong width")
        values: dict = {}
        for name in self.conditional_columns:
            block = vector[self.condition_slice(name)]
            if block.max() > 0:
                values[name] = self._categories[name][int(block.argmax())]
        return values

    # ------------------------------------------------------------------ #
    def sample(self, batch_size: int, rng: np.random.Generator) -> ConditionBatch:
        """Draw a training batch of conditions plus matching real rows.

        Fully batched: one RNG call per decision stream (pivot choice,
        uniform-vs-weighted coin, per-column value draws, per-column bucket
        positions), then the condition matrix is built with a single scatter
        write from the integer codes.  Weighted value draws search the
        column's precomputed CDF with one ``rng.random`` draw, which is
        what ``rng.choice(k, size=m, p=probs)`` computes (same indices,
        same stream) without re-validating and re-summing ``probs`` per call.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")

        n_columns = len(self.conditional_columns)
        pivot_indices = rng.integers(0, n_columns, size=batch_size)
        uniform_mask = rng.random(batch_size) < self.uniform_probability

        pivot_codes = np.empty(batch_size, dtype=np.int64)
        row_indices = np.empty(batch_size, dtype=np.int64)
        for position, name in enumerate(self.conditional_columns):
            selected = np.nonzero(pivot_indices == position)[0]
            if not len(selected):
                continue
            k = len(self._categories[name])
            codes = np.empty(len(selected), dtype=np.int64)
            uniform_here = uniform_mask[selected]
            n_uniform = int(uniform_here.sum())
            if n_uniform:
                codes[uniform_here] = rng.integers(0, k, size=n_uniform)
            if len(selected) - n_uniform:
                codes[~uniform_here] = self._category_cdfs[name].searchsorted(
                    rng.random(len(selected) - n_uniform), side="right"
                )
            bounds = self._bucket_bounds[name]
            sizes = bounds[codes + 1] - bounds[codes]
            positions = rng.integers(0, np.maximum(sizes, 1))
            # Fancy indexing always allocates, so overwriting the empty-bucket
            # fallbacks below cannot touch the bucket table itself.
            rows = self._bucket_rows[name][bounds[codes] + np.minimum(positions, sizes - 1)]
            empty = sizes == 0
            if empty.any():
                rows[empty] = rng.integers(0, self.n_rows, size=int(empty.sum()))
            pivot_codes[selected] = codes
            row_indices[selected] = rows

        codes = self._codes[row_indices].copy()
        codes[np.arange(batch_size), pivot_indices] = pivot_codes
        return ConditionBatch(
            vector=self.vectors_from_codes(codes),
            row_indices=row_indices,
            codes=codes,
            pivot_indices=pivot_indices,
            sampler=self,
        )

    def empirical_codes(self, n: int, rng: np.random.Generator) -> ConditionCodes:
        """Conditions drawn from the *empirical* joint distribution.

        Used at generation time: rows are sampled uniformly from the real
        table and their conditional-attribute values become conditions, so
        the synthetic data reproduces the original attribute distribution
        (section III-A: fidelity is preserved "during testing").  The draw is
        one ``integers`` call on ``rng``; the codes stay the sampled rows of
        the real table's code matrix.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return ConditionCodes(self, self._codes, n, rng.integers(0, self.n_rows, size=n))

    def empirical_conditions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The condition matrix of :meth:`empirical_codes` (the same draw)."""
        return self.empirical_codes(n, rng).matrix()

    def fixed_codes(self, values: dict, n: int) -> ConditionCodes:
        """``n`` rows all conditioned on ``values`` (see :meth:`vector_from_values`)."""
        return ConditionCodes(self, self.codes_from_values(values)[None, :], n)

    def _require_table(self) -> Table:
        if self.table is None:
            raise RuntimeError(
                "this ConditionSampler was restored from a model artifact and "
                "carries no real rows; only condition sampling is available"
            )
        return self.table

    def real_batch(self, batch: ConditionBatch) -> Table:
        """Real rows aligned with the sampled conditions."""
        return self._require_table().select_rows(batch.row_indices)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``rng.choice(len(probs), p=probs)`` searches, built the same way."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf
