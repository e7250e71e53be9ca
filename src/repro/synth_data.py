"""Spark entry points for the synthetic temporal-edge tables.

The paper evaluates on temporal graphs whose schema is one row per
interaction ``(u, v, t)``. The generators live in
``repro.tgraph.generators``; the two wrappers here return their output as
Spark DataFrames: :func:`temporal_edges` for the analogs of the paper's 8
evaluation datasets at a scale factor (tests use sf ≈ 0.01–0.1, benchmarks
sf = 1), and :func:`temporal_edges_random` for an unstructured random
temporal graph. Both are deterministic in ``seed``.
"""
from pyspark.sql import DataFrame, SparkSession

from .tgraph.generators import analog, random_temporal_graph


def temporal_edges(spark: SparkSession, *, name: str = "email", sf: float = 1.0, seed: int = 7) -> DataFrame:
    """Flat temporal-edge table (u, v, t) for one paper-dataset analog."""
    return spark.createDataFrame(analog(name, sf=sf, seed=seed))


def temporal_edges_random(
    spark: SparkSession, *, n_vertices: int, n_edges: int, n_timestamps: int = 32,
    tau: float = 2.0, seed: int = 0,
) -> DataFrame:
    """Flat temporal-edge table for an unstructured random temporal graph."""
    return spark.createDataFrame(
        random_temporal_graph(
            n_vertices=n_vertices, n_edges=n_edges,
            n_timestamps=n_timestamps, tau=tau, seed=seed,
        )
    )
