"""Command-line interface: ``python -m repro <command>``.

Nine commands cover the common workflows without writing any code:

* ``python -m repro datasets``
      list the bundled dataset stand-ins;
* ``python -m repro generate --dataset lab_iot --records 3000 --output syn.csv``
      train a synthesizer and write a synthetic CSV (plus a validity /
      fidelity summary);
* ``python -m repro evaluate --dataset lab_iot --records 3000``
      run the quick evaluation battery (fidelity, knowledge-graph validity,
      train-on-synthetic / test-on-real accuracy) for one synthesizer;
* ``python -m repro save --dataset lab_iot --artifact-dir artifacts/kinetgan``
      train a synthesizer and persist it as a versioned model artifact
      (manifest + network weights + transformer / sampler / KG state);
* ``python -m repro sample --artifact artifacts/kinetgan --samples 5000``
      sample from a saved artifact *without retraining* (streamed to CSV in
      bounded-memory chunks; ``--condition attr=value`` fixes attributes);
* ``python -m repro serve --artifact artifacts/kinetgan --requests 32``
      run a burst of sampling requests over one or more artifacts through
      the serving pool and report throughput; with ``--http`` it instead
      serves them over HTTP (``POST /sample``, ``GET /health``,
      ``GET /artifacts``) with a bounded admission queue, per-artifact
      concurrency limits, request deadlines and graceful drain (see
      ``docs/serving.md``);
* ``python -m repro metrics --url http://127.0.0.1:8765``
      scrape a running HTTP server's ``GET /metrics`` endpoint and print
      the Prometheus text exposition (``--json`` prints the structured
      snapshot instead; see ``docs/observability.md``);
* ``python -m repro federated --clients 4 --rounds 10 --workers 4``
      run the federated detector comparison (local-only vs FedAvg vs
      centralised), optionally fanning client rounds out over a process
      pool (``--workers 4`` / ``--workers process:4``) or a zero-pickling
      thread pool (``--workers thread`` / ``thread:4``, see
      :mod:`repro.runtime`);
* ``python -m repro distributed --nodes 3 --workers 3``
      run the synthetic-sharing distributed NIDS scenario, optionally with
      the per-node pipelines in parallel (same ``--workers`` specs).

The full paper tables and figures are regenerated by the benchmark suite
(``pytest benchmarks/ --benchmark-only``), not by the CLI.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.baselines import CTGAN, OCTGAN, PATEGAN, TVAE, IndependentSampler, TableGAN
from repro.core import KiNETGAN, KiNETGANConfig
from repro.datasets import available_datasets, load_dataset
from repro.distributed import DistributedNIDSSimulation
from repro.engine import sampling_rng
from repro.federated import FederatedNIDSSimulation
from repro.fidelity import emd_distance, jensen_shannon_distance, mixed_distance
from repro.knowledge import BatchValidator, KGReasoner, build_network_kg
from repro.nids import evaluate_utility
from repro.obs import configure_tracing, default_registry, disable_tracing
from repro.runtime import resolve_executor
from repro.serve import (
    ArtifactError,
    ModelArtifact,
    SamplingHTTPServer,
    ServingPool,
    check_conditions,
    fetch_json,
    load_model,
    sample_stream,
    save_model,
)
from repro.tabular.split import train_test_split

__all__ = ["build_parser", "main"]

#: Synthesizers selectable from the command line.
MODEL_CHOICES = (
    "kinetgan",
    "ctgan",
    "tvae",
    "tablegan",
    "octgan",
    "pategan",
    "independent",
)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return number


def _workers_spec(value: str) -> str:
    """Validate an executor spec at parse time, keep it as a string.

    The spec is resolved again (fresh) by whatever command consumes it; the
    probe instance built here never spins up a pool (pools are lazy) and is
    closed immediately.
    """
    try:
        resolve_executor(value).close()
    except (ValueError, TypeError) as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _make_config(args: argparse.Namespace) -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=args.epochs,
        batch_size=128,
        seed=args.seed,
        dtype=getattr(args, "dtype", "float64"),
        verbose=getattr(args, "log_every", None) is not None,
        log_every=getattr(args, "log_every", None) or 20,
        patience=getattr(args, "patience", 0),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        metrics=getattr(args, "metrics_dump", None) is not None,
    )


def _fit_model(name: str, bundle, args: argparse.Namespace):
    """Build the requested synthesizer, then fit it on the training table.

    The model is built before any training starts, so a config it cannot
    honour (``--dtype float32`` on a float64-only baseline) ends the
    command with the constructor's one-line message.
    """
    config = _make_config(args)
    builders = {
        "kinetgan": lambda: KiNETGAN(config),
        "ctgan": lambda: CTGAN(config),
        "octgan": lambda: OCTGAN(config),
        "tvae": lambda: TVAE(config),
        "tablegan": lambda: TableGAN(config, label_column=bundle.label_column),
        "pategan": lambda: PATEGAN(config, num_teachers=3),
        "independent": lambda: IndependentSampler(seed=args.seed),
    }
    try:
        model = builders[name]()
    except ValueError as error:
        raise SystemExit(f"repro {args.command}: {error}") from None
    fit_kwargs: dict = {}
    if name in ("kinetgan", "ctgan", "octgan"):
        fit_kwargs["condition_columns"] = bundle.condition_columns
    if name == "kinetgan":
        fit_kwargs["catalog"] = bundle.catalog
    train = args.train_table
    print(f"Training {name} on {train.n_rows} rows of {args.dataset!r} "
          f"({args.epochs} epochs) ...")
    return model.fit(train, **fit_kwargs)


def _load_split(args: argparse.Namespace):
    bundle = load_dataset(args.dataset, n_records=args.records, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    train, test = train_test_split(
        bundle.table, 0.25, rng, stratify_column=bundle.label_column
    )
    args.train_table = train
    args.test_table = test
    return bundle, train, test


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
def cmd_datasets(_: argparse.Namespace) -> int:
    print("Available dataset stand-ins:\n")
    for name in available_datasets():
        bundle = load_dataset(name, n_records=200, seed=0)
        print(f"  {name:<12} label={bundle.label_column!r} "
              f"columns={len(bundle.schema)} "
              f"conditions={bundle.condition_columns}")
    print("\nLoad one with repro.datasets.load_dataset(name, n_records=..., seed=...).")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    bundle, train, _test = _load_split(args)
    model = _fit_model(args.model, bundle, args)
    rng = sampling_rng(args.seed)
    synthetic = model.sample(args.samples or train.n_rows, rng=rng)

    output = Path(args.output)
    synthetic.to_csv(output)
    print(f"Wrote {synthetic.n_rows} synthetic rows to {output}")

    print(f"EMD distance to real     : {emd_distance(train, synthetic):.4f}")
    print(f"Jensen-Shannon distance  : {jensen_shannon_distance(train, synthetic):.4f}")
    try:
        reasoner = KGReasoner(build_network_kg(bundle.catalog), field_map=bundle.catalog.field_map)
        validity = BatchValidator(reasoner).report(synthetic)
        print(f"knowledge-graph validity : {validity.validity_rate:.3f}")
    except Exception as error:  # pragma: no cover - defensive, catalogs are complete
        print(f"knowledge-graph validity : unavailable ({error})")
    return 0


def cmd_save(args: argparse.Namespace) -> int:
    bundle, train, _test = _load_split(args)
    model = _fit_model(args.model, bundle, args)
    artifact = save_model(
        model,
        args.artifact_dir,
        metadata={
            "model": args.model,
            "dataset": args.dataset,
            "records": args.records,
            "train_rows": train.n_rows,
            "epochs": args.epochs,
            "seed": args.seed,
        },
    )
    networks = ", ".join(artifact.networks) or "none"
    print(f"Saved {artifact.model_class} artifact to {artifact.directory}")
    print(f"  format version : {artifact.format_version}")
    print(f"  networks       : {networks}")
    print(f"Sample from it with: repro sample --artifact {artifact.directory}")
    return 0


def _parse_conditions(pairs: list[str] | None) -> dict | None:
    """Parse ``--condition attr=value`` pairs (ints recovered by syntax)."""
    if not pairs:
        return None
    conditions: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--condition expects attr=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        value: object = raw
        try:
            value = int(raw)
        except ValueError:
            pass
        conditions[name.strip()] = value
    return conditions


def cmd_sample(args: argparse.Namespace) -> int:
    artifact = ModelArtifact.open(args.artifact)
    print(f"Loading {artifact.model_class} artifact from {artifact.directory} ...")
    model = load_model(artifact.directory)
    conditions = _parse_conditions(args.condition)
    try:
        check_conditions(getattr(model, "sampler", None), conditions or {}, args.artifact)
    except ValueError as error:
        raise SystemExit(f"repro sample: {error}") from None
    output = Path(args.output)
    started = time.perf_counter()
    rows_written = 0
    with open(output, "w", newline="") as handle:
        writer = csv.writer(handle)
        header_written = False
        for chunk in sample_stream(
            model, args.samples, conditions, seed=args.seed, chunk_rows=args.chunk_rows
        ):
            if not header_written:
                writer.writerow(chunk.schema.names)
                header_written = True
            writer.writerows(zip(*(chunk.column(name) for name in chunk.schema.names)))
            rows_written += chunk.n_rows
    elapsed = time.perf_counter() - started
    rate = rows_written / elapsed if elapsed > 0 else float("inf")
    print(f"Wrote {rows_written} synthetic rows to {output} "
          f"({elapsed:.2f}s, {rate:,.0f} rows/s, chunks of {args.chunk_rows})")
    return 0


def _validate_artifacts(paths: list[str]) -> None:
    """Open every artifact manifest upfront; exit with one clear error."""
    problems = []
    for path in paths:
        try:
            ModelArtifact.open(path)
        except ArtifactError as error:
            problems.append(str(error))
    if problems:
        raise SystemExit("cannot serve:\n  " + "\n  ".join(problems))


def _serving_pool(args: argparse.Namespace) -> ServingPool:
    """The pool ``repro serve`` samples through, in-process or over HTTP."""
    return ServingPool(
        {str(path): path for path in args.artifact},
        executor=args.workers,
        task_retries=args.retries,
    )


def _serve_http(args: argparse.Namespace) -> int:
    """``repro serve --http``: the network front-end (Ctrl-C drains)."""
    with _serving_pool(args) as pool:
        server = SamplingHTTPServer(
            pool,
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            artifact_concurrency=args.artifact_concurrency,
            request_deadline=args.request_deadline,
            retry_after=args.retry_after,
        )
        with server:
            print(f"Serving {len(args.artifact)} artifact(s) on {server.url} "
                  f"(workers={args.workers}, queue_depth={args.queue_depth})")
            print("Endpoints: POST /sample  GET /health  GET /artifacts  GET /metrics")
            print("Ctrl-C drains the queue and stops.")
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                print("\nDraining ...")
        stats = server.stats.snapshot()
        print(f"Served {stats['served']} requests "
              f"({stats['rejected']} rejected, {stats['timeouts']} timed out).")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: snapshot a running HTTP server's metrics."""
    url = args.url.rstrip("/")
    try:
        if args.json:
            document = fetch_json(url, "/metrics?format=json", timeout=args.timeout)
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            with urllib.request.urlopen(url + "/metrics", timeout=args.timeout) as response:
                sys.stdout.write(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError) as error:
        raise SystemExit(f"cannot scrape {url}/metrics: {error}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    _validate_artifacts(args.artifact)
    if args.http:
        return _serve_http(args)
    requests = [
        (str(args.artifact[i % len(args.artifact)]), args.request_rows, None, args.seed + i)
        for i in range(args.requests)
    ]
    print(f"Loading {len(args.artifact)} artifact(s) (workers={args.workers}) ...")
    with _serving_pool(args) as pool:
        started = time.perf_counter()
        results = pool.sample_batch(requests, timeout=args.request_deadline)
        elapsed = time.perf_counter() - started
    failures = [result.failure for result in results if result.failure is not None]
    if failures:
        raise SystemExit(f"{len(failures)} request(s) failed; first: {failures[0].message}")
    rows = sum(result.value.n_rows for result in results)
    print(f"Served {len(requests)} requests / {rows} rows in {elapsed:.2f}s "
          f"({rows / elapsed if elapsed else float('inf'):,.0f} rows/s, "
          f"{len(requests) / elapsed if elapsed else float('inf'):,.1f} req/s)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    bundle, train, test = _load_split(args)
    model = _fit_model(args.model, bundle, args)
    rng = sampling_rng(args.seed)
    synthetic = model.sample(train.n_rows, rng=rng)

    print("\n=== Fidelity ===")
    print(f"EMD distance           : {emd_distance(train, synthetic):.4f}")
    print(f"mixed L1/L2 distance   : {mixed_distance(train, synthetic):.4f}")
    print(f"Jensen-Shannon distance: {jensen_shannon_distance(train, synthetic):.4f}")

    print("\n=== Knowledge-graph validity ===")
    reasoner = KGReasoner(build_network_kg(bundle.catalog), field_map=bundle.catalog.field_map)
    validity = BatchValidator(reasoner).report(synthetic)
    print(f"validity rate          : {validity.validity_rate:.3f}")
    for rule, count in sorted(validity.violations_by_rule.items()):
        print(f"  {rule:<20}: {count} violations")

    print("\n=== Downstream NIDS utility (train on synthetic, test on real) ===")
    results = evaluate_utility(
        train, test, {args.model.upper(): synthetic}, bundle.label_column,
        classifiers=tuple(args.classifiers),
        seed=args.seed,
    )
    for result in results:
        per_model = ", ".join(
            f"{name}={metrics['accuracy']:.3f}" for name, metrics in result.per_classifier.items()
        )
        print(f"  {result.source:<12} mean={result.mean_accuracy:.3f}  ({per_model})")
    return 0


def cmd_federated(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.dataset, n_records=args.records, seed=args.seed)
    print(
        f"Federated detector training on {args.dataset!r}: {args.clients} clients, "
        f"{args.rounds} rounds, workers={args.workers} ..."
    )
    # The with-block releases the executor's workers on every path,
    # including exceptions raised mid-run.
    with FederatedNIDSSimulation(
        bundle,
        num_clients=args.clients,
        skew=args.skew,
        hidden_dims=(32,),
        num_rounds=args.rounds,
        local_epochs=args.local_epochs,
        seed=args.seed,
        executor=args.workers,
        min_clients=args.min_clients,
        task_timeout=args.task_timeout,
        task_retries=args.retries,
    ) as simulation:
        result = simulation.run()
    print(f"local-only accuracy : {result.local_only:.3f} (macro-F1 {result.local_only_f1:.3f})")
    print(f"federated accuracy  : {result.federated:.3f} (macro-F1 {result.federated_f1:.3f})")
    print(f"centralised accuracy: {result.centralised:.3f} (macro-F1 {result.centralised_f1:.3f})")
    print("per-device local    :", {k: round(v, 3) for k, v in result.per_client_local.items()})
    return 0


def cmd_distributed(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.dataset, n_records=args.records, seed=args.seed)
    print(
        f"Distributed synthetic-sharing NIDS on {args.dataset!r}: {args.nodes} nodes, "
        f"skew={args.skew}, workers={args.workers} ..."
    )
    with DistributedNIDSSimulation(
        bundle,
        num_nodes=args.nodes,
        non_iid_skew=args.skew,
        classifier=args.classifier,
        config=KiNETGANConfig(
            epochs=args.epochs,
            seed=args.seed,
            dtype=args.dtype,
            metrics=getattr(args, "metrics_dump", None) is not None,
        ),
        seed=args.seed,
        executor=args.workers,
        task_timeout=args.task_timeout,
        task_retries=args.retries,
    ) as simulation:
        result = simulation.run(share_size=args.share_size)
    for node_id, accuracy in result.per_node_local.items():
        validity = result.share_validity.get(node_id)
        validity_text = f", share KG-validity {validity:.2f}" if validity is not None else ""
        print(f"  {node_id}: local accuracy {accuracy:.3f}{validity_text}")
    print(result)
    return 0


# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KiNETGAN reproduction: knowledge-infused synthetic network-activity data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the bundled dataset stand-ins")

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", default="lab_iot", choices=available_datasets())
        sub.add_argument("--model", default="kinetgan", choices=MODEL_CHOICES)
        sub.add_argument("--records", type=int, default=3000, help="dataset rows to simulate")
        sub.add_argument("--epochs", type=int, default=40, help="training epochs")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--dtype", default="float64", choices=("float64", "float32"),
                         help="numeric precision of the model's parameters and "
                              "training math; float32 halves memory traffic "
                              "(see docs/precision.md)")

    def add_obs(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--metrics-dump", default=None, dest="metrics_dump", metavar="PATH",
                         help="write the process metrics registry as JSON to "
                              "PATH when the command finishes")
        sub.add_argument("--trace-dump", default=None, dest="trace_dump", metavar="PATH",
                         help="enable tracing and append one JSON span per "
                              "line to PATH (JSONL)")

    def add_workers(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers", type=_workers_spec, default="serial",
            help="executor spec for the multi-node runtime: 0/1/'serial' "
                 "(in-process), N or 'process[:N]' (process pool), "
                 "'thread[:N]' (thread pool, zero pickling); seeded results "
                 "are bit-identical in every case",
        )

    generate = subparsers.add_parser("generate", help="train a synthesizer and write a CSV")
    add_common(generate)
    add_obs(generate)
    generate.add_argument("--samples", type=int, default=None,
                          help="synthetic rows to write (default: training-set size)")
    generate.add_argument("--output", default="synthetic.csv", help="output CSV path")
    generate.add_argument("--log-every", type=_positive_int, default=None, dest="log_every",
                          help="print a training-engine progress line every N epochs")
    generate.add_argument("--patience", type=_non_negative_int, default=0,
                          help="early-stop after N epochs without loss improvement "
                               "(0 disables)")
    generate.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                          help="directory where the engine checkpoints model weights")

    save = subparsers.add_parser(
        "save", help="train a synthesizer and save it as a versioned model artifact"
    )
    add_common(save)
    add_obs(save)
    save.add_argument("--artifact-dir", required=True, dest="artifact_dir",
                      help="directory the model artifact is written into")

    sample = subparsers.add_parser(
        "sample", help="sample from a saved model artifact (no retraining)"
    )
    sample.add_argument("--artifact", required=True,
                        help="artifact directory written by 'repro save'")
    sample.add_argument("--samples", type=_positive_int, default=1000,
                        help="synthetic rows to generate")
    sample.add_argument("--output", default="synthetic.csv", help="output CSV path")
    sample.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: the artifact's own seed)")
    sample.add_argument("--chunk-rows", type=_positive_int, default=1024,
                        dest="chunk_rows",
                        help="rows generated and written per streamed chunk")
    sample.add_argument("--condition", action="append", default=None, metavar="ATTR=VALUE",
                        help="fix a conditional attribute for every row (repeatable)")

    serve = subparsers.add_parser(
        "serve", help="serve sampling requests from saved artifacts"
    )
    serve.add_argument("--artifact", action="append", required=True,
                       help="artifact directory to serve (repeatable)")
    serve.add_argument("--requests", type=_positive_int, default=32,
                       help="sampling requests to serve")
    serve.add_argument("--request-rows", type=_positive_int, default=256,
                       dest="request_rows", help="rows per request")
    serve.add_argument("--seed", type=int, default=0,
                       help="base seed; request i samples with seed + i")
    serve.add_argument("--http", action="store_true",
                       help="serve over HTTP (POST /sample, GET /health, "
                            "GET /artifacts) instead of running an "
                            "in-process burst; Ctrl-C drains and stops")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default: loopback only)")
    serve.add_argument("--port", type=_non_negative_int, default=8765,
                       help="HTTP port (0 picks a free port)")
    serve.add_argument("--queue-depth", type=_positive_int, default=64,
                       dest="queue_depth",
                       help="bounded admission queue; requests beyond this "
                            "get 429 + Retry-After")
    serve.add_argument("--artifact-concurrency", type=_positive_int, default=8,
                       dest="artifact_concurrency",
                       help="max in-flight requests per artifact per "
                            "dispatch burst")
    serve.add_argument("--request-deadline", type=_positive_float, default=None,
                       dest="request_deadline",
                       help="per-request deadline in seconds (queue wait and "
                            "execution each bounded; overruns answer 504)")
    serve.add_argument("--retry-after", type=_positive_float, default=1.0,
                       dest="retry_after",
                       help="Retry-After seconds sent with 429 responses")
    serve.add_argument("--retries", type=_non_negative_int, default=0,
                       help="bit-identical replays of a failed sampling task "
                            "before the request errors")
    add_workers(serve)

    metrics = subparsers.add_parser(
        "metrics", help="scrape a running HTTP server's GET /metrics endpoint"
    )
    metrics.add_argument("--url", default="http://127.0.0.1:8765",
                         help="base URL of a running 'repro serve --http' server")
    metrics.add_argument("--json", action="store_true",
                         help="print the JSON snapshot instead of the "
                              "Prometheus text exposition")
    metrics.add_argument("--timeout", type=_positive_float, default=10.0,
                         help="scrape timeout in seconds")

    evaluate = subparsers.add_parser("evaluate", help="run the quick evaluation battery")
    add_common(evaluate)
    add_obs(evaluate)
    evaluate.add_argument(
        "--classifiers", nargs="+", default=["decision_tree", "naive_bayes"],
        help="NIDS classifiers for the utility test",
    )

    federated = subparsers.add_parser(
        "federated", help="run the federated detector training comparison"
    )
    federated.add_argument("--dataset", default="lab_iot", choices=available_datasets())
    federated.add_argument("--records", type=int, default=3000, help="dataset rows to simulate")
    federated.add_argument("--clients", type=_positive_int, default=4)
    federated.add_argument("--rounds", type=_positive_int, default=10)
    federated.add_argument("--local-epochs", type=_positive_int, default=2, dest="local_epochs")
    federated.add_argument("--skew", type=float, default=0.6,
                           help="non-IID label skew across clients (0 = IID)")
    federated.add_argument("--seed", type=int, default=0)
    federated.add_argument("--min-clients", type=_positive_int, default=1,
                           dest="min_clients",
                           help="quorum: client rounds that must survive for a "
                                "round to aggregate (fewer raise QuorumError)")
    federated.add_argument("--task-timeout", type=_positive_float, default=None,
                           dest="task_timeout",
                           help="per-client-round deadline in seconds "
                                "(default: unbounded)")
    federated.add_argument("--retries", type=_non_negative_int, default=0,
                           help="bit-identical replays of a failed client round "
                                "before the client is dropped")
    add_workers(federated)
    add_obs(federated)

    distributed = subparsers.add_parser(
        "distributed", help="run the synthetic-sharing distributed NIDS scenario"
    )
    distributed.add_argument("--dataset", default="lab_iot", choices=available_datasets())
    distributed.add_argument("--records", type=int, default=3000, help="dataset rows to simulate")
    distributed.add_argument("--nodes", type=_positive_int, default=3)
    distributed.add_argument("--epochs", type=_positive_int, default=20,
                             help="local synthesizer training epochs per node")
    distributed.add_argument("--skew", type=float, default=0.7,
                             help="non-IID label skew across nodes (0 = IID)")
    distributed.add_argument("--share-size", type=_positive_int, default=None,
                             dest="share_size",
                             help="synthetic rows each node publishes "
                                  "(default: its local row count)")
    distributed.add_argument("--classifier", default="decision_tree")
    distributed.add_argument("--seed", type=int, default=0)
    distributed.add_argument("--task-timeout", type=_positive_float, default=None,
                             dest="task_timeout",
                             help="per-node deadline in seconds "
                                  "(default: unbounded)")
    distributed.add_argument("--retries", type=_non_negative_int, default=0,
                             help="bit-identical replays of a failed node "
                                  "before it is marked dead")
    distributed.add_argument("--dtype", default="float64", choices=("float64", "float32"),
                             help="numeric precision of each node's local "
                                  "synthesizer (see docs/precision.md)")
    add_workers(distributed)
    add_obs(distributed)
    return parser


def _run_with_obs(handler, args: argparse.Namespace) -> int:
    """Run a command under the ``--trace-dump`` / ``--metrics-dump`` sinks.

    Tracing is configured before the command body so every span it opens
    lands in the JSONL file; the metrics snapshot is written on the way
    out even when the command fails, so a crashed run still leaves its
    counters behind for diagnosis.
    """
    trace_dump = getattr(args, "trace_dump", None)
    metrics_dump = getattr(args, "metrics_dump", None)
    if trace_dump is not None:
        # The sink appends lazily; touch the file up front so a span-free
        # command still leaves the (empty) trace it announced.
        Path(trace_dump).touch()
        configure_tracing(Path(trace_dump))
    try:
        return handler(args)
    finally:
        if metrics_dump is not None:
            Path(metrics_dump).write_text(default_registry().snapshot_json() + "\n")
            print(f"Wrote metrics snapshot to {metrics_dump}")
        if trace_dump is not None:
            disable_tracing()
            print(f"Wrote trace spans to {trace_dump}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "generate": cmd_generate,
        "save": cmd_save,
        "sample": cmd_sample,
        "serve": cmd_serve,
        "metrics": cmd_metrics,
        "evaluate": cmd_evaluate,
        "federated": cmd_federated,
        "distributed": cmd_distributed,
    }
    return _run_with_obs(handlers[args.command], args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
