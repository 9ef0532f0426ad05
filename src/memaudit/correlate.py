"""All-pairs correlation engine: every query row against every reference
row, keeping the top-k per query.

Images (their selected channels) and embeddings are both row matrices
once standardized, so they take one path. Rows are standardized a chunk
at a time by `core.standardize_rows` into a float32 matrix; then a
blocked matrix product with float64 accumulation runs over the query
blocks in order: tiles are upcast and multiplied with dgemm, clamped to
[-1, 1], and merged into per-query top-k selections in a fixed order
(ascending reference-block index) with ties broken by ascending
reference id. Parallelism is the BLAS library's own threads. Results are
bit-identical for identical inputs, block budget and BLAS thread count;
across block budgets they agree within 1e-6.

`brute_force_correlations` is the deliberately naive oracle: per-pair
scalar Pearson with no shared standardization, used to verify the
blocked engine and refused at scales where the quadratic cost would be
abused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    CHANNEL_MODES,
    Dataset,
    pearson,
    resolve_channel_mask,
    standardize_rows,
)
from .errors import InvalidArgumentError, UndefinedCorrelationError
from .ingest import EmbeddingSet

DEFAULT_BLOCK_BUDGET_MIB = 32.0
BRUTE_FORCE_LIMIT = 10_000_000

ProgressFn = Callable[[int, int], None]  # (comparisons done, total)


@dataclass(frozen=True)
class ComparisonPlan:
    """Size and tiling of one all-pairs audit."""

    n_query: int
    n_reference: int
    total_comparisons: int
    vector_length: int
    block_query: int
    block_reference: int
    estimated_multiply_adds: int

    def __post_init__(self):
        if min(self.n_query, self.n_reference) < 0:
            raise InvalidArgumentError("counts must be non-negative")
        if self.vector_length < 1:
            raise InvalidArgumentError("vector_length must be positive")
        if self.total_comparisons != self.n_query * self.n_reference:
            raise InvalidArgumentError("total_comparisons must be n_query * n_reference")
        if self.estimated_multiply_adds != self.total_comparisons * self.vector_length:
            raise InvalidArgumentError(
                "estimated_multiply_adds must be total_comparisons * vector_length"
            )
        if min(self.block_query, self.block_reference) < 1:
            raise InvalidArgumentError("block sizes must be positive")


@dataclass(frozen=True)
class TopKMatches:
    """Ranked best matches for one query image.

    matches is (reference_id, correlation) descending by correlation,
    ties by ascending reference_id, correlations clamped to [-1, 1].
    skipped_invalid counts constant reference images excluded from the
    maxima; a constant query has query_valid=False and no matches.
    """

    query_id: str
    matches: tuple[tuple[str, float], ...]
    skipped_invalid: int = 0
    query_valid: bool = True

    def __post_init__(self):
        object.__setattr__(
            self,
            "matches",
            tuple((str(r), float(c)) for r, c in self.matches),
        )

    @property
    def top1(self) -> Optional[tuple[str, float]]:
        return self.matches[0] if self.matches else None


def plan_audit(
    n_query: int,
    n_reference: int,
    vector_length: int,
    block_budget_mib: float = DEFAULT_BLOCK_BUDGET_MIB,
) -> ComparisonPlan:
    """Exact comparison counts plus tile sizes for the blocked engine.

    Tiles are sized so one float64 tile pair plus its output fits the
    working-set budget: 8*(2*B*N + B*B) <= budget bytes.
    """
    if n_query < 0 or n_reference < 0:
        raise InvalidArgumentError("counts must be non-negative")
    if vector_length < 1:
        raise InvalidArgumentError("vector_length must be positive")
    if block_budget_mib <= 0:
        raise InvalidArgumentError("block budget must be positive")
    budget = block_budget_mib * (1 << 20) / 8.0  # float64 slots
    n = float(vector_length)
    block = int(np.sqrt(n * n + budget) - n)
    block = max(1, min(block, 65536))
    total = n_query * n_reference
    return ComparisonPlan(
        n_query=n_query,
        n_reference=n_reference,
        total_comparisons=total,
        vector_length=vector_length,
        block_query=max(1, min(block, n_query or 1)),
        block_reference=max(1, min(block, n_reference or 1)),
        estimated_multiply_adds=total * vector_length,
    )


# ---------------------------------------------------------------------------
# Blocked engine
# ---------------------------------------------------------------------------


def _tie_ranks(ids: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Rank ids lexicographically; returns (rank per position, id by rank)."""
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    rank = np.empty(len(ids), dtype=np.int64)
    by_rank = [""] * len(ids)
    for pos, i in enumerate(order):
        rank[i] = pos
        by_rank[pos] = ids[i]
    return rank, by_rank


def _select_topk_rows(vals: np.ndarray, ranks: np.ndarray, k: int):
    """Per row: the k largest values, ties resolved toward smaller rank.

    Exact selection: entries strictly above the k-th value are always
    kept, then remaining slots go to the tied entries with the smallest
    ranks. Output columns are unordered (final ordering happens once per
    query at the end).
    """
    rows, m = vals.shape
    if m <= k:
        return vals, ranks
    out_v = np.empty((rows, k), dtype=vals.dtype)
    out_r = np.empty((rows, k), dtype=ranks.dtype)
    for i in range(rows):
        v = vals[i]
        r = ranks[i]
        top = np.argpartition(v, m - k)[m - k :]
        kth = v[top].min()
        sure = np.flatnonzero(v > kth)
        need = k - sure.size
        tied = np.flatnonzero(v == kth)
        if tied.size > need:
            tied = tied[np.argpartition(r[tied], need - 1)[:need]]
        sel = np.concatenate([sure, tied])
        out_v[i] = v[sel]
        out_r[i] = r[sel]
    return out_v, out_r


# Float64 staging per standardization chunk: sets are standardized a few
# MiB at a time, so the transient memory does not grow with their size.
_CHUNK_BYTES = 8 << 20

RowReader = Callable[[int, int], np.ndarray]  # (i0, i1) -> rows i0..i1-1


def _standardize(
    n_rows: int, read: RowReader, shape: tuple[int, int], mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 standardized matrix of the valid rows, plus the validity
    mask of all rows.

    read(i0, i1) returns rows i0..i1-1 as floats of shape
    (i1 - i0, *shape), where shape is (segments, length); it is called
    on consecutive chunks of at most _CHUNK_BYTES of float64.
    """
    segments, length = shape
    width = segments * length
    step = max(1, _CHUNK_BYTES // (8 * width))
    matrix = np.empty((n_rows, width), dtype=np.float32)
    valid = np.empty(n_rows, dtype=bool)
    filled = 0
    for i0 in range(0, n_rows, step):
        i1 = min(i0 + step, n_rows)
        block = np.array(read(i0, i1), dtype=np.float64).reshape(i1 - i0, *shape)
        values, ok = standardize_rows(block, mode)
        valid[i0:i1] = ok
        good = values if ok.all() else values[ok]
        matrix[filled : filled + len(good)] = good
        filled += len(good)
    return matrix[:filled], valid


def _run(
    query_ids: Sequence[str],
    read_query: RowReader,
    reference_ids: Sequence[str],
    read_reference: RowReader,
    shape: tuple[int, int],
    mode: str,
    k: int,
    block_budget_mib: float,
    progress: Optional[ProgressFn],
) -> list[TopKMatches]:
    """Standardize both sides, then blocked top-k of query rows against
    reference rows."""
    q_mat, q_valid = _standardize(len(query_ids), read_query, shape, mode)
    r_mat, r_valid = _standardize(len(reference_ids), read_reference, shape, mode)
    plan = plan_audit(
        len(query_ids), len(reference_ids), shape[0] * shape[1], block_budget_mib
    )
    nq, nr = q_mat.shape[0], r_mat.shape[0]
    skipped = int((~r_valid).sum())
    ranks, id_by_rank = _tie_ranks(
        [rid for rid, ok in zip(reference_ids, r_valid) if ok]
    )

    bq, br = plan.block_query, plan.block_reference
    total_pairs = nq * nr
    done = 0
    sorted_rows = []
    for q0 in range(0, nq, bq):
        q1 = min(q0 + bq, nq)
        q64 = q_mat[q0:q1].astype(np.float64)
        carry_v = np.empty((q1 - q0, 0), dtype=np.float64)
        carry_r = np.empty((q1 - q0, 0), dtype=np.int64)
        for r0 in range(0, nr, br):  # fixed ascending order: deterministic merges
            r1 = min(r0 + br, nr)
            tile = q64 @ r_mat[r0:r1].astype(np.float64).T
            np.clip(tile, -1.0, 1.0, out=tile)
            cand_v = np.concatenate([carry_v, tile], axis=1)
            cand_r = np.concatenate(
                [carry_r, np.broadcast_to(ranks[r0:r1], tile.shape)], axis=1
            )
            carry_v, carry_r = _select_topk_rows(cand_v, cand_r, k)
            if progress is not None:
                done += (q1 - q0) * (r1 - r0)
                progress(done, total_pairs)
        for i in range(q1 - q0):
            order = np.lexsort((carry_r[i], -carry_v[i]))
            sorted_rows.append((carry_v[i][order], carry_r[i][order]))
    if progress is not None and total_pairs == 0:
        progress(0, 0)

    results: list[TopKMatches] = []
    valid_iter = iter(sorted_rows)
    for qid, ok in zip(query_ids, q_valid):
        if not ok:
            results.append(TopKMatches(qid, (), skipped, query_valid=False))
            continue
        vals, rks = next(valid_iter)
        matches = tuple(
            (id_by_rank[int(r)], float(v)) for v, r in zip(vals, rks)
        )
        results.append(TopKMatches(qid, matches, skipped, query_valid=True))
    return results


def max_correlations(
    query: Dataset,
    reference: Dataset,
    channel_mask: Optional[Iterable[int]] = None,
    k: int = 5,
    mode: str = "concat",
    block_budget_mib: float = DEFAULT_BLOCK_BUDGET_MIB,
    progress: Optional[ProgressFn] = None,
) -> list[TopKMatches]:
    """Top-k highest correlations for every query image against all
    valid reference images.

    Agrees with brute_force_correlations within 1e-6 per entry. Constant
    reference images are excluded (counted in skipped_invalid); constant
    queries come back with query_valid=False and no matches.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if len(reference) == 0:
        raise InvalidArgumentError("reference dataset is empty")
    if len(query) == 0:
        return []
    if query.shape != reference.shape:
        raise InvalidArgumentError(
            f"dimension mismatch: query {query.shape} vs reference {reference.shape}"
        )
    if mode not in CHANNEL_MODES:
        raise InvalidArgumentError(f"unknown channel mode {mode!r}")
    c, h, w = reference.shape
    mask = list(resolve_channel_mask(channel_mask, c))

    def rows(ds: Dataset) -> RowReader:
        return lambda i0, i1: np.stack([img.chw()[mask] for img in ds.images[i0:i1]])

    return _run(
        [img.id for img in query.images], rows(query),
        [img.id for img in reference.images], rows(reference),
        (len(mask), h * w), mode, k, block_budget_mib, progress,
    )


def max_correlations_embeddings(
    query: EmbeddingSet,
    reference: EmbeddingSet,
    k: int = 5,
    metric: str = "pearson",
    block_budget_mib: float = DEFAULT_BLOCK_BUDGET_MIB,
    progress: Optional[ProgressFn] = None,
) -> list[TopKMatches]:
    """max_correlations over embedding rows instead of images.

    metric="pearson" centers each row before normalizing; "cosine" is
    the plain dot product of L2-normalized rows.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if query.dim != reference.dim:
        raise InvalidArgumentError(
            f"dimension mismatch: query dim {query.dim} vs reference {reference.dim}"
        )
    if metric not in ("pearson", "cosine"):
        raise InvalidArgumentError(f"unknown embedding metric {metric!r}")
    return _run(
        query.ids, lambda i0, i1: query.rows[i0:i1],
        reference.ids, lambda i0, i1: reference.rows[i0:i1],
        (1, query.dim), metric, k, block_budget_mib, progress,
    )


def brute_force_correlations(
    query: Dataset,
    reference: Dataset,
    channel_mask: Optional[Iterable[int]] = None,
    mode: str = "concat",
) -> np.ndarray:
    """Full correlation matrix by per-pair scalar Pearson (the oracle).

    No blocking, no shared standardization; entry (i, j) is
    pearson(query_i, reference_j), NaN where the correlation is
    undefined (constant input). Refused above 10^7 pairs: use
    max_correlations for real runs.
    """
    n_pairs = len(query) * len(reference)
    if n_pairs > BRUTE_FORCE_LIMIT:
        raise InvalidArgumentError(
            f"{n_pairs} pairs exceeds the brute-force guard "
            f"({BRUTE_FORCE_LIMIT}); use max_correlations"
        )
    if len(query) and len(reference) and query.shape != reference.shape:
        raise InvalidArgumentError(
            f"dimension mismatch: query {query.shape} vs reference {reference.shape}"
        )
    out = np.full((len(query), len(reference)), np.nan, dtype=np.float64)
    for i, q in enumerate(query.images):
        for j, r in enumerate(reference.images):
            try:
                out[i, j] = pearson(q, r, channel_mask, mode)
            except UndefinedCorrelationError:
                pass
    return out
