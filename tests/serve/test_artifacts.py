"""Artifact round-trips: save -> load -> sample must be bit-identical.

Covers the headline ``repro.serve`` invariant for KiNETGAN and the
baselines (in-process and across a subprocess boundary), plus the
manifest validation failure modes.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import TVAE, IndependentSampler, TableGAN
from repro.core import KiNETGAN, KiNETGANConfig
from repro.engine import sampling_rng
from repro.serve import ArtifactError, ModelArtifact, load_model, save_model
from repro.serve.codec import load_state_npz, save_state_npz

REPO_ROOT = Path(__file__).resolve().parents[2]


def small_config(seed: int = 0, dtype: str = "float64") -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=2,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        max_modes=4,
        seed=seed,
        dtype=dtype,
    )


@pytest.fixture(scope="module")
def train_table(lab_bundle_small):
    return lab_bundle_small.table.head(400)


@pytest.fixture(scope="module")
def fitted_kinetgan(lab_bundle_small, train_table):
    model = KiNETGAN(small_config())
    model.fit(
        train_table,
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
    )
    return model


@pytest.fixture(scope="module")
def fitted_tvae(train_table):
    return TVAE(small_config(), latent_dim=8).fit(train_table)


@pytest.fixture(scope="module")
def fitted_tablegan(lab_bundle_small, train_table):
    return TableGAN(small_config(), label_column=lab_bundle_small.label_column).fit(train_table)


@pytest.fixture(scope="module")
def kinetgan_artifact(fitted_kinetgan, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("artifacts") / "kinetgan"
    save_model(fitted_kinetgan, directory, metadata={"dataset": "lab_iot"})
    return directory


def copy_with_sampler_state(source: Path, target: Path, edit) -> Path:
    """Copy an artifact, applying ``edit`` to its saved sampler state."""
    target.mkdir()
    for path in Path(source).iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    state = load_state_npz(target / "state.npz")
    edit(state["sampler"])
    save_state_npz(state, target / "state.npz")
    return target


def assert_tables_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    assert a.n_rows == b.n_rows
    for name in a.schema.names:
        assert np.array_equal(a.column(name), b.column(name)), name


class TestRoundTripParity:
    def test_kinetgan_bit_parity(self, fitted_kinetgan, kinetgan_artifact):
        loaded = load_model(kinetgan_artifact)
        expected = fitted_kinetgan.sample(300, rng=sampling_rng(42))
        actual = loaded.sample(300, rng=sampling_rng(42))
        assert_tables_identical(expected, actual)

    def test_kinetgan_conditional_parity(self, fitted_kinetgan, kinetgan_artifact):
        loaded = load_model(kinetgan_artifact)
        conditions = {"event_type": fitted_kinetgan.sampler.categories("event_type")[0]}
        expected = fitted_kinetgan.sample(64, conditions=conditions, rng=sampling_rng(5))
        actual = loaded.sample(64, conditions=conditions, rng=sampling_rng(5))
        assert_tables_identical(expected, actual)

    def test_tvae_bit_parity(self, fitted_tvae, tmp_path):
        save_model(fitted_tvae, tmp_path / "tvae")
        loaded = load_model(tmp_path / "tvae")
        assert_tables_identical(
            fitted_tvae.sample(200, rng=sampling_rng(7)),
            loaded.sample(200, rng=sampling_rng(7)),
        )

    def test_tablegan_bit_parity(self, fitted_tablegan, tmp_path):
        save_model(fitted_tablegan, tmp_path / "tablegan")
        loaded = load_model(tmp_path / "tablegan")
        assert_tables_identical(
            fitted_tablegan.sample(200, rng=sampling_rng(9)),
            loaded.sample(200, rng=sampling_rng(9)),
        )

    def test_independent_sampler_round_trip(self, train_table, tmp_path):
        model = IndependentSampler(seed=3).fit(train_table)
        artifact = save_model(model, tmp_path / "independent")
        assert artifact.networks == []
        loaded = load_model(tmp_path / "independent")
        assert_tables_identical(
            model.sample(150, rng=sampling_rng(1)),
            loaded.sample(150, rng=sampling_rng(1)),
        )

    def test_default_seed_sampling_matches(self, fitted_kinetgan, kinetgan_artifact):
        """With no explicit rng both sides fall back to the config seed."""
        loaded = load_model(kinetgan_artifact)
        assert_tables_identical(fitted_kinetgan.sample(50), loaded.sample(50))


class TestRestoredState:
    def test_restored_sampler_carries_no_real_rows(self, kinetgan_artifact):
        loaded = load_model(kinetgan_artifact)
        assert loaded.sampler.table is None
        batch = loaded.sampler.sample(16, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="no real rows"):
            loaded.sampler.real_batch(batch)

    def test_manifest_records_model_and_networks(self, kinetgan_artifact):
        artifact = ModelArtifact.open(kinetgan_artifact)
        assert artifact.model_class == "KiNETGAN"
        assert artifact.format_version == 2
        assert set(artifact.networks) == {"generator", "discriminator", "kg_head"}
        assert artifact.metadata["dataset"] == "lab_iot"

    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_model(KiNETGAN(small_config()), tmp_path / "nope")


class TestCrossProcess:
    def test_subprocess_load_samples_identically(self, fitted_kinetgan, kinetgan_artifact,
                                                 tmp_path):
        """A fresh interpreter loads the artifact and reproduces sample()."""
        out_csv = tmp_path / "subprocess.csv"
        script = (
            "import sys\n"
            "from repro.serve import load_model\n"
            "from repro.engine import sampling_rng\n"
            "model = load_model(sys.argv[1])\n"
            "model.sample(120, rng=sampling_rng(2024)).to_csv(sys.argv[2])\n"
        )
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", script, str(kinetgan_artifact), str(out_csv)],
            check=True,
            env=env,
            cwd=str(tmp_path),
        )
        expected = tmp_path / "expected.csv"
        fitted_kinetgan.sample(120, rng=sampling_rng(2024)).to_csv(expected)
        assert out_csv.read_text() == expected.read_text()


class TestRejection:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            load_model(tmp_path)

    def test_future_format_version_rejected(self, kinetgan_artifact, tmp_path):
        corrupted = tmp_path / "future"
        corrupted.mkdir()
        for path in Path(kinetgan_artifact).iterdir():
            (corrupted / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((corrupted / "manifest.json").read_text())
        manifest["format_version"] = 999
        (corrupted / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format version"):
            load_model(corrupted)

    def test_unknown_model_class_rejected(self, kinetgan_artifact, tmp_path):
        corrupted = tmp_path / "unknown"
        corrupted.mkdir()
        for path in Path(kinetgan_artifact).iterdir():
            (corrupted / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((corrupted / "manifest.json").read_text())
        manifest["model_class"] = "DiffusionModel"
        (corrupted / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="unknown model class"):
            load_model(corrupted)

    def test_missing_network_file_named_in_error(self, kinetgan_artifact, tmp_path):
        corrupted = tmp_path / "missing_net"
        corrupted.mkdir()
        for path in Path(kinetgan_artifact).iterdir():
            if path.name != "generator.npz":
                (corrupted / path.name).write_bytes(path.read_bytes())
        with pytest.raises(ArtifactError, match="generator"):
            load_model(corrupted)

    def test_corrupt_state_blob_rejected(self, kinetgan_artifact, tmp_path):
        corrupted = tmp_path / "bad_state"
        corrupted.mkdir()
        for path in Path(kinetgan_artifact).iterdir():
            (corrupted / path.name).write_bytes(path.read_bytes())
        (corrupted / "state.npz").write_bytes(b"not an npz archive")
        with pytest.raises(ArtifactError, match="state"):
            load_model(corrupted)

    def test_unwritable_format_version_rejected(self, fitted_kinetgan, tmp_path):
        """save_model writes format v2 only; no argument asks for another."""
        with pytest.raises(TypeError, match="format_version"):
            save_model(fitted_kinetgan, tmp_path / "v1", format_version=1)


#: Every key ConditionSampler.artifact_state() writes.
SAMPLER_STATE_KEYS = (
    "conditional_columns",
    "uniform_probability",
    "log_frequency",
    "n_rows",
    "categories",
    "category_probs",
    "bucket_rows",
    "bucket_bounds",
    "codes",
)


class TestSamplerState:
    def test_key_list_matches_saved_state(self, kinetgan_artifact):
        state = load_state_npz(Path(kinetgan_artifact) / "state.npz")
        assert sorted(state["sampler"]) == sorted(SAMPLER_STATE_KEYS)

    @pytest.mark.parametrize("key", SAMPLER_STATE_KEYS)
    def test_missing_sampler_key_is_artifact_error(self, kinetgan_artifact, tmp_path, key):
        broken = copy_with_sampler_state(
            kinetgan_artifact, tmp_path / "broken", lambda sampler: sampler.pop(key)
        )
        with pytest.raises(ArtifactError, match="malformed KiNETGAN state") as info:
            load_model(broken)
        assert str(broken) in str(info.value)

    def test_parent_format_legacy_false_loads_bit_identically(
        self, fitted_kinetgan, kinetgan_artifact, tmp_path
    ):
        """Artifacts saved before the legacy sampler was retired carry False."""
        older = copy_with_sampler_state(
            kinetgan_artifact,
            tmp_path / "older",
            lambda sampler: sampler.update(legacy_sampling=False),
        )
        loaded = load_model(older)
        expected = fitted_kinetgan.sampler.sample(64, np.random.default_rng(3))
        actual = loaded.sampler.sample(64, np.random.default_rng(3))
        np.testing.assert_array_equal(expected.vector, actual.vector)
        np.testing.assert_array_equal(expected.row_indices, actual.row_indices)
        assert_tables_identical(
            fitted_kinetgan.sample(300, rng=sampling_rng(42)),
            loaded.sample(300, rng=sampling_rng(42)),
        )

    def test_legacy_sampling_true_rejected(self, kinetgan_artifact, tmp_path):
        legacy = copy_with_sampler_state(
            kinetgan_artifact,
            tmp_path / "legacy",
            lambda sampler: sampler.update(legacy_sampling=True),
        )
        with pytest.raises(ArtifactError, match="legacy_sampling"):
            load_model(legacy)


class TestFormatV2:
    """The default format is pickle-free and safe to load untrusted."""

    def test_state_is_npz_not_pickle(self, kinetgan_artifact):
        directory = Path(kinetgan_artifact)
        assert (directory / "state.npz").exists()
        assert not (directory / "state.pkl").exists()
        artifact = ModelArtifact.open(directory)
        assert artifact.state_path.name == "state.npz"

    def test_state_npz_loads_without_pickle(self, kinetgan_artifact):
        """Every npz member is a plain-dtype array -- allow_pickle stays off."""
        with np.load(Path(kinetgan_artifact) / "state.npz", allow_pickle=False) as data:
            assert "__state_json__" in data.files
            for member in data.files:
                assert data[member].dtype != object

    def test_no_pickle_opcodes_in_state_file(self, kinetgan_artifact):
        """The state blob contains no pickled payloads at all."""
        import io
        import zipfile

        raw = (Path(kinetgan_artifact) / "state.npz").read_bytes()
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            for name in archive.namelist():
                assert not archive.read(name).startswith(b"\x80"), name

    def test_all_baselines_round_trip_v2(self, train_table, tmp_path):
        from repro.baselines import PATEGAN

        model = PATEGAN(small_config(), num_teachers=2).fit(train_table)
        artifact = save_model(model, tmp_path / "pategan")
        assert artifact.format_version == 2
        loaded = load_model(tmp_path / "pategan")
        assert_tables_identical(
            model.sample(150, rng=sampling_rng(13)),
            loaded.sample(150, rng=sampling_rng(13)),
        )

    def test_malicious_state_document_cannot_name_arbitrary_class(self, tmp_path):
        """A hostile kind tag fails loudly instead of constructing objects."""
        from repro.serve.codec import StateDecodeError, load_state_npz, save_state_npz

        path = save_state_npz({"x": 1}, tmp_path / "state.npz")
        import io
        import json as json_module
        import zipfile

        raw = (tmp_path / "state.npz").read_bytes()
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            doc = json_module.loads(archive.read("__state_json__.npy")[128:].rstrip(b"\x00"))
        doc["evil"] = {"__kind__": "subprocess_popen", "cmd": "true"}
        buffer = io.BytesIO()
        np.savez(
            buffer,
            __state_json__=np.frombuffer(
                json_module.dumps(doc).encode("utf-8"), dtype=np.uint8
            ),
        )
        (tmp_path / "evil.npz").write_bytes(buffer.getvalue())
        with pytest.raises(StateDecodeError, match="unsupported node kind"):
            load_state_npz(tmp_path / "evil.npz")
        assert path.exists()


class _HostileState:
    """Unpickles as ``open(path, "w")``: a v1 ``state.pkl`` that creates a file."""

    def __init__(self, path: Path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestFormatV1Rejected:
    """Format v1 (a pickled ``state.pkl``) is retired: refused, never unpickled."""

    def test_v1_artifact_rejected_without_unpickling(self, kinetgan_artifact, tmp_path):
        marker = tmp_path / "created-by-unpickling"
        blob = pickle.dumps(_HostileState(marker))
        v1 = tmp_path / "v1"
        v1.mkdir()
        for path in Path(kinetgan_artifact).iterdir():
            if path.name != "state.npz":
                (v1 / path.name).write_bytes(path.read_bytes())
        (v1 / "state.pkl").write_bytes(blob)
        manifest = json.loads((v1 / "manifest.json").read_text())
        manifest.update(format_version=1, state_file="state.pkl")
        (v1 / "manifest.json").write_text(json.dumps(manifest))

        with pytest.raises(ArtifactError, match="re-save the artifact with a release that reads v1"):
            load_model(v1)
        assert not marker.exists()
        # The blob is live: unpickling it is exactly what the loader refused.
        pickle.loads(blob).close()
        assert marker.exists()


class TestArtifactDtype:
    """The mixed-precision artifact contract (``docs/precision.md``).

    A float32 model must round-trip through ``save_model`` / ``load_model``
    with its dtype recorded in the manifest, its networks restored in
    float32, and its samples bit-identical -- in-process and across a
    fresh interpreter.  A manifest whose declared
    dtype disagrees with the restored networks must be rejected.
    """

    @pytest.fixture(scope="class")
    def fitted_float32(self, lab_bundle_small, train_table):
        model = KiNETGAN(small_config(dtype="float32"))
        model.fit(
            train_table,
            catalog=lab_bundle_small.catalog,
            condition_columns=lab_bundle_small.condition_columns,
        )
        return model

    @pytest.fixture(scope="class")
    def float32_artifact(self, fitted_float32, tmp_path_factory) -> Path:
        directory = tmp_path_factory.mktemp("artifacts-f32") / "kinetgan-f32"
        save_model(fitted_float32, directory, metadata={"dataset": "lab_iot"})
        return directory

    def test_manifest_records_float32(self, float32_artifact):
        artifact = ModelArtifact.open(float32_artifact)
        assert artifact.dtype == "float32"
        assert json.loads((float32_artifact / "manifest.json").read_text())["dtype"] == "float32"

    def test_manifest_records_float64_default(self, kinetgan_artifact):
        assert ModelArtifact.open(kinetgan_artifact).dtype == "float64"

    def test_float32_round_trip_bit_identical(self, fitted_float32, float32_artifact):
        loaded = load_model(float32_artifact)
        assert_tables_identical(
            fitted_float32.sample(300, rng=sampling_rng(42)),
            loaded.sample(300, rng=sampling_rng(42)),
        )

    def test_restored_networks_are_float32(self, float32_artifact):
        loaded = load_model(float32_artifact)
        for name, network in loaded.artifact_networks().items():
            assert np.dtype(network.dtype) == np.float32, name

    def test_weight_files_halve(self, kinetgan_artifact, float32_artifact):
        """Same architecture, half the parameter bytes on disk."""
        f64 = sum(p.stat().st_size for p in Path(kinetgan_artifact).glob("*.npz"))
        f32 = sum(p.stat().st_size for p in Path(float32_artifact).glob("*.npz"))
        assert f32 < 0.75 * f64

    def test_missing_dtype_key_accepted(self, float32_artifact, tmp_path):
        """Artifacts from before the precision tier carry no dtype key."""
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for path in Path(float32_artifact).iterdir():
            (legacy / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((legacy / "manifest.json").read_text())
        del manifest["dtype"]
        (legacy / "manifest.json").write_text(json.dumps(manifest))
        assert ModelArtifact.open(legacy).dtype is None
        load_model(legacy)  # loads fine; the config still restores float32

    def test_mismatched_manifest_dtype_rejected(self, float32_artifact, tmp_path):
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for path in Path(float32_artifact).iterdir():
            (tampered / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((tampered / "manifest.json").read_text())
        manifest["dtype"] = "float64"
        (tampered / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="declares dtype"):
            load_model(tampered)

    def test_subprocess_load_samples_identically(
        self, fitted_float32, float32_artifact, tmp_path
    ):
        """A fresh interpreter reproduces the float32 artifact's samples."""
        out_csv = tmp_path / "subprocess_f32.csv"
        script = (
            "import sys\n"
            "from repro.serve import load_model\n"
            "from repro.engine import sampling_rng\n"
            "model = load_model(sys.argv[1])\n"
            "model.sample(120, rng=sampling_rng(2024)).to_csv(sys.argv[2])\n"
        )
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", script, str(float32_artifact), str(out_csv)],
            check=True,
            env=env,
            cwd=str(tmp_path),
        )
        expected = tmp_path / "expected_f32.csv"
        fitted_float32.sample(120, rng=sampling_rng(2024)).to_csv(expected)
        assert out_csv.read_text() == expected.read_text()
