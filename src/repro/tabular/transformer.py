"""Table-to-matrix transformation for the generative models.

:class:`DataTransformer` turns a mixed categorical / continuous
:class:`~repro.tabular.table.Table` into a single float matrix and back:

* categorical columns become one-hot blocks (activation ``softmax``),
* continuous columns become either a CTGAN-style mode-specific pair
  ``(alpha, one-hot mode)`` (activations ``tanh`` + ``softmax``) or a single
  min-max scaled scalar (activation ``tanh``).

The per-column layout is exposed via :class:`ColumnOutputInfo` /
:class:`OutputSpan`, which the generators use to apply the right output
activation to each block and which the condition-vector machinery uses to
locate the one-hot block of a conditional attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tabular.encoders import MinMaxScaler, ModeSpecificNormalizer, OneHotEncoder
from repro.tabular.schema import TableSchema
from repro.tabular.segments import BlockLayout
from repro.tabular.table import Table

__all__ = ["OutputSpan", "ColumnOutputInfo", "DataTransformer", "DecodedRows"]


@dataclass(frozen=True)
class OutputSpan:
    """A contiguous block of transformed features sharing one activation."""

    dim: int
    activation: str  # "tanh" or "softmax"

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError("span dim must be positive")
        if self.activation not in ("tanh", "softmax"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class ColumnOutputInfo:
    """Transformed layout of one source column."""

    name: str
    kind: str  # "categorical" or "continuous"
    spans: tuple[OutputSpan, ...]
    start: int

    @property
    def dim(self) -> int:
        return sum(span.dim for span in self.spans)

    @property
    def end(self) -> int:
        return self.start + self.dim

    @property
    def onehot_slice(self) -> slice:
        """Slice of the categorical one-hot block within the full matrix.

        For categorical columns this is the whole block; for mode-normalised
        continuous columns it is the mode-indicator block (used only
        internally).  Raises for min-max encoded continuous columns.
        """
        if self.kind == "categorical":
            return slice(self.start, self.end)
        if len(self.spans) == 2:
            return slice(self.start + 1, self.end)
        raise ValueError(f"column {self.name!r} has no one-hot block")


class _DecodePlan:
    """Precomputed batched-decode structure for :class:`DecodedRows`.

    All categorical columns decode with ONE fancy index into a padded
    ``(n_categorical, max_categories)`` object table; all mode-normalised
    continuous columns decode with a handful of ``(rows, n_mode_columns)``
    array operations against padded per-column mean / std / bound tables.
    The per-column Python work drops to slicing the output matrices.
    """

    def __init__(self, transformer: "DataTransformer") -> None:
        from repro.tabular.encoders import ModeSpecificNormalizer, OneHotEncoder

        cat_names: list[str] = []
        cat_blocks: list[int] = []
        cat_tables: list[np.ndarray] = []
        mode_names: list[str] = []
        mode_blocks: list[int] = []
        mode_alpha_cols: list[int] = []
        mode_means: list[np.ndarray] = []
        mode_stds: list[np.ndarray] = []
        mode_low: list[float] = []
        mode_high: list[float] = []
        self.minmax: list[tuple[str, object, int, float | None, float | None]] = []
        # Position of each tanh column among the scalar columns.
        scalar = {int(col): i for i, col in enumerate(transformer.tanh_columns())}
        for info in transformer.output_info:
            encoder = transformer._encoders[info.name]
            spec = transformer.schema.column(info.name)
            if isinstance(encoder, OneHotEncoder):
                cat_names.append(info.name)
                cat_blocks.append(transformer._softmax_block_of(info.name))
                cat_tables.append(encoder._categories_array)
            elif isinstance(encoder, ModeSpecificNormalizer):
                mode_names.append(info.name)
                mode_blocks.append(transformer._softmax_block_of(info.name))
                mode_alpha_cols.append(scalar[info.start])
                mode_means.append(encoder.gmm.means)
                mode_stds.append(encoder.gmm.stds)
                mode_low.append(spec.minimum if spec.minimum is not None else -np.inf)
                mode_high.append(spec.maximum if spec.maximum is not None else np.inf)
            else:
                self.minmax.append(
                    (info.name, encoder, scalar[info.start], spec.minimum, spec.maximum)
                )
        self.cat_names = cat_names
        self.cat_blocks = np.asarray(cat_blocks, dtype=np.intp)
        self.mode_names = mode_names
        self.mode_blocks = np.asarray(mode_blocks, dtype=np.intp)
        self.mode_alpha_cols = np.asarray(mode_alpha_cols, dtype=np.intp)
        if cat_names:
            max_k = max(len(table) for table in cat_tables)
            self.cat_table = np.empty((len(cat_names), max_k), dtype=object)
            for i, table in enumerate(cat_tables):
                self.cat_table[i, : len(table)] = table
            self.cat_rows = np.arange(len(cat_names))[None, :]
        if mode_names:
            max_k = max(len(means) for means in mode_means)
            self.mode_mu = np.zeros((len(mode_names), max_k))
            self.mode_sigma = np.ones((len(mode_names), max_k))
            for i, (means, stds) in enumerate(zip(mode_means, mode_stds)):
                self.mode_mu[i, : len(means)] = means
                self.mode_sigma[i, : len(stds)] = stds
            self.mode_rows = np.arange(len(mode_names))[None, :]
            self.mode_lo = np.asarray(mode_low)
            self.mode_hi = np.asarray(mode_high)

    def decode_into(
        self, out: "DecodedRows", row: int, winners: np.ndarray, scalars: np.ndarray
    ) -> None:
        """Decode ``len(winners)`` rows into ``out``'s columns from ``row`` on.

        Every step is elementwise per row, so a table decoded block by block
        holds the bits of one whole-table decode.
        """
        rows = slice(row, row + len(winners))
        if self.cat_names:
            out.categorical[rows] = self.cat_table[self.cat_rows, winners[:, self.cat_blocks]]
        if self.mode_names:
            modes = winners[:, self.mode_blocks]
            alpha = np.clip(scalars[:, self.mode_alpha_cols], -1.0, 1.0)
            mu = self.mode_mu[self.mode_rows, modes]
            sigma = self.mode_sigma[self.mode_rows, modes]
            np.clip(alpha * 4.0 * sigma + mu, self.mode_lo, self.mode_hi, out=out.mode[rows])
        for (_, encoder, column, minimum, maximum), values in zip(self.minmax, out.minmax):
            block = encoder.inverse_transform(scalars[:, column])
            if minimum is not None:
                np.maximum(block, minimum, out=block)
            if maximum is not None:
                np.minimum(block, maximum, out=block)
            values[rows] = block


class DecodedRows:
    """The preallocated output columns of an ``n``-row decode.

    Blocks of per-block winners and tanh scalars decode straight into them
    (:meth:`write`), so a share never holds its whole winner or scalar
    matrix.  The finished :meth:`table` keeps one layout however it was
    filled: categorical columns are views of one ``(n, n_categorical)``
    object array, mode-normalised columns views of one ``(n, n_mode)``
    float array, and each min-max column its own array.
    """

    def __init__(self, plan: _DecodePlan, schema: TableSchema, n: int) -> None:
        self._plan, self._schema, self.n = plan, schema, n
        self.categorical = np.empty((n, len(plan.cat_names)), dtype=object)
        self.mode = np.empty((n, len(plan.mode_names)))
        self.minmax = [np.empty(n) for _ in plan.minmax]

    def write(self, row: int, winners: np.ndarray, scalars: np.ndarray) -> None:
        """Decode rows given as winners and scalars into rows ``row`` onward."""
        self._plan.decode_into(self, row, winners, scalars)

    def table(self) -> Table:
        plan = self._plan
        columns = {name: self.categorical[:, i] for i, name in enumerate(plan.cat_names)}
        columns.update((name, self.mode[:, i]) for i, name in enumerate(plan.mode_names))
        columns.update((entry[0], values) for entry, values in zip(plan.minmax, self.minmax))
        return Table(self._schema, columns)


class DataTransformer:
    """Fit/transform/inverse-transform a table into GAN-ready float matrices."""

    def __init__(
        self,
        max_modes: int = 10,
        continuous_encoding: str = "mode",
        seed: int = 0,
    ) -> None:
        if continuous_encoding not in ("mode", "minmax"):
            raise ValueError("continuous_encoding must be 'mode' or 'minmax'")
        self.max_modes = max_modes
        self.continuous_encoding = continuous_encoding
        self.seed = seed
        self.schema: TableSchema | None = None
        self.output_info: list[ColumnOutputInfo] = []
        self._encoders: dict[str, object] = {}
        self._softmax_spans: list[tuple[int, int]] | None = None
        self._softmax_layout_cache: BlockLayout | None = None
        self._softmax_block_index: dict[str, int] | None = None
        self._tanh_columns: np.ndarray | None = None
        self._decode_plan: "_DecodePlan | None" = None
        self._output_dim = 0
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(self, table: Table) -> "DataTransformer":
        """Learn per-column encoders from ``table``."""
        self.schema = table.schema
        self.output_info = []
        self._encoders = {}
        cursor = 0
        for spec in table.schema:
            values = table.column(spec.name)
            if spec.is_categorical:
                categories = list(spec.categories) if spec.categories else None
                encoder = OneHotEncoder(categories=categories, handle_unknown="ignore")
                encoder.fit(values)
                spans = (OutputSpan(encoder.dim, "softmax"),)
            elif self.continuous_encoding == "mode":
                encoder = ModeSpecificNormalizer(max_modes=self.max_modes, seed=self.seed)
                encoder.fit(values)
                spans = (OutputSpan(1, "tanh"), OutputSpan(encoder.n_modes, "softmax"))
            else:
                encoder = MinMaxScaler()
                encoder.fit(values)
                spans = (OutputSpan(1, "tanh"),)
            info = ColumnOutputInfo(name=spec.name, kind=spec.kind, spans=spans, start=cursor)
            cursor += info.dim
            self.output_info.append(info)
            self._encoders[spec.name] = encoder
        self._softmax_spans = None
        self._softmax_layout_cache = None
        self._softmax_block_index = None
        self._tanh_columns = None
        self._decode_plan = None
        self._output_dim = cursor
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("DataTransformer used before fit()")

    # ------------------------------------------------------------------ #
    def artifact_state(self) -> dict:
        """Fitted state for the :mod:`repro.serve` artifact format.

        Everything needed to rebuild a bit-identical transformer without the
        training table: constructor knobs, the schema, and each column
        encoder's exact fitted state (category orders, mixture parameters,
        scaling bounds).  The span layout is *not* stored -- it is a pure
        function of (schema, encoders) and is recomputed on restore.
        """
        self._require_fitted()
        return {
            "max_modes": self.max_modes,
            "continuous_encoding": self.continuous_encoding,
            "seed": self.seed,
            "schema": self.schema.to_dict(),
            "encoders": {
                info.name: self._encoders[info.name].artifact_state()
                for info in self.output_info
            },
        }

    @classmethod
    def from_artifact_state(cls, state: dict) -> "DataTransformer":
        """Rebuild a fitted transformer from :meth:`artifact_state` output."""
        from repro.tabular.encoders import encoder_from_state

        transformer = cls(
            max_modes=int(state["max_modes"]),
            continuous_encoding=state["continuous_encoding"],
            seed=int(state["seed"]),
        )
        transformer.schema = TableSchema.from_dict(state["schema"])
        cursor = 0
        for spec in transformer.schema:
            encoder = encoder_from_state(state["encoders"][spec.name])
            if isinstance(encoder, OneHotEncoder):
                spans = (OutputSpan(encoder.dim, "softmax"),)
            elif isinstance(encoder, ModeSpecificNormalizer):
                spans = (OutputSpan(1, "tanh"), OutputSpan(encoder.n_modes, "softmax"))
            else:
                spans = (OutputSpan(1, "tanh"),)
            info = ColumnOutputInfo(name=spec.name, kind=spec.kind, spans=spans, start=cursor)
            cursor += info.dim
            transformer.output_info.append(info)
            transformer._encoders[spec.name] = encoder
        transformer._output_dim = cursor
        transformer._fitted = True
        return transformer

    @property
    def output_dim(self) -> int:
        """Width of the transformed matrix (cached at fit time)."""
        self._require_fitted()
        return self._output_dim

    def column_info(self, name: str) -> ColumnOutputInfo:
        self._require_fitted()
        for info in self.output_info:
            if info.name == name:
                return info
        raise KeyError(f"no column named {name!r}")

    def encoder(self, name: str):
        """The fitted encoder for ``name`` (used by the condition machinery)."""
        self._require_fitted()
        return self._encoders[name]

    def activation_spans(self) -> list[tuple[int, int, str]]:
        """Flat ``(start, end, activation)`` list covering the whole output."""
        self._require_fitted()
        spans: list[tuple[int, int, str]] = []
        for info in self.output_info:
            cursor = info.start
            for span in info.spans:
                spans.append((cursor, cursor + span.dim, span.activation))
                cursor += span.dim
        return spans

    def softmax_spans(self) -> list[tuple[int, int]]:
        """Cached ``(start, end)`` bounds of every softmax (one-hot) block."""
        self._require_fitted()
        if self._softmax_spans is None:
            self._softmax_spans = [
                (start, end)
                for start, end, activation in self.activation_spans()
                if activation == "softmax"
            ]
        return self._softmax_spans

    def softmax_layout(self) -> BlockLayout:
        """Cached :class:`BlockLayout` over every softmax (one-hot) block.

        The layout turns per-block argmax / softmax over the whole matrix
        into a handful of segmented C passes; it is the backbone of the
        batched ``inverse_transform`` / ``decode`` paths, of the share
        path's per-block winners and of the generator's output activation.
        """
        self._require_fitted()
        if self._softmax_layout_cache is None:
            self._softmax_layout_cache = BlockLayout(self.softmax_spans())
        return self._softmax_layout_cache

    def _softmax_block_of(self, name: str) -> int:
        """Index of ``name``'s one-hot (or mode) block within the layout."""
        if self._softmax_block_index is None:
            index: dict[str, int] = {}
            block = 0
            for info in self.output_info:
                for span in info.spans:
                    if span.activation == "softmax":
                        index[info.name] = block
                        block += 1
            self._softmax_block_index = index
        return self._softmax_block_index[name]

    def tanh_columns(self) -> np.ndarray:
        """Cached indices of every tanh-activated (scalar) output column."""
        self._require_fitted()
        if self._tanh_columns is None:
            cols: list[int] = []
            for start, end, activation in self.activation_spans():
                if activation == "tanh":
                    cols.extend(range(start, end))
            self._tanh_columns = np.asarray(cols, dtype=np.intp)
        return self._tanh_columns

    def harden(self, matrix: np.ndarray, inplace: bool = False) -> np.ndarray:
        """Convert soft one-hot blocks to exact one-hot by per-block argmax.

        The baselines' sampling code hardens here (the KiNETGAN share path
        decodes per-block winners instead).  One pass over the cached
        softmax spans with numpy fancy indexing -- no per-block temporaries
        -- copies the input at most once.  ``inplace=True`` is a copy-avoidance hint for
        callers that own the matrix: when the input is already a float64
        array it is hardened in place and returned; otherwise the dtype
        conversion still produces (and returns) a new array, so callers
        must always use the return value.  ``tanh`` spans are untouched.
        """
        self._require_fitted()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.output_dim:
            raise ValueError(
                f"expected matrix of width {self.output_dim}, got shape {matrix.shape}"
            )
        out = matrix if inplace else matrix.copy()
        if out.shape[0] == 0:
            return out
        rows = np.arange(out.shape[0])
        for start, end in self.softmax_spans():
            winners = start + out[:, start:end].argmax(axis=1)
            out[:, start:end] = 0.0
            out[rows, winners] = 1.0
        return out

    # ------------------------------------------------------------------ #
    def transform(self, table: Table, rng: np.random.Generator | None = None) -> np.ndarray:
        """Encode ``table`` into a float matrix of shape (rows, output_dim).

        Single-pass: the output matrix is allocated once and every column
        block is written straight into its slice.  Categorical columns go
        through the encoder's integer codes and one scatter write instead of
        building a separate one-hot temporary per column.
        """
        self._require_fitted()
        if table.schema.names != self.schema.names:
            raise ValueError("table schema does not match the fitted schema")
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        n_rows = table.n_rows
        out = np.zeros((n_rows, self.output_dim), dtype=np.float64)
        rows = np.arange(n_rows)
        for info in self.output_info:
            encoder = self._encoders[info.name]
            values = table.column(info.name)
            if isinstance(encoder, ModeSpecificNormalizer):
                out[:, info.start : info.end] = encoder.transform(
                    values.astype(np.float64), rng=rng
                )
            elif isinstance(encoder, MinMaxScaler):
                out[:, info.start] = encoder.transform(values.astype(np.float64))
            else:
                codes = encoder.codes(values)
                known = codes >= 0
                out[rows[known], info.start + codes[known]] = 1.0
        return out

    def inverse_transform(self, matrix: np.ndarray) -> Table:
        """Decode a (possibly soft) matrix back into a typed table.

        Every block's winner comes from one batched argmax pass; the table
        is then built by :meth:`decode`.
        """
        self._require_fitted()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.output_dim:
            raise ValueError(
                f"expected matrix of width {self.output_dim}, got shape {matrix.shape}"
            )
        return self.decode(self.softmax_layout().winners(matrix), matrix[:, self.tanh_columns()])

    def decode(self, winners: np.ndarray, scalars: np.ndarray) -> Table:
        """The typed table of rows given as per-block winners
        (``softmax_layout()`` order) and float64 tanh columns
        (``tanh_columns()`` order) -- all a hardened row carries."""
        out = self.decoded_rows(len(winners))
        out.write(0, winners, scalars)
        return out.table()

    def decoded_rows(self, n: int) -> DecodedRows:
        """Empty output columns for ``n`` rows, filled block by block
        through :meth:`DecodedRows.write` (the share path's decode)."""
        self._require_fitted()
        if self._decode_plan is None:
            self._decode_plan = _DecodePlan(self)
        return DecodedRows(self._decode_plan, self.schema, n)
