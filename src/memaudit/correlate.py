"""All-pairs correlation engine: every query row against every reference
row, keeping the top-k per query.

Images (their selected channels) and embeddings are both row matrices
once standardized by `core.standardize_rows`, so they take one path.
The query rows and, given one, the test rows (an audit's synthetic and
held-out sets) are read and standardized once into one resident float64
matrix. The reference set is then read once, in blocks of rows sized by
the block budget: each block is read into one reused float64 buffer and
standardized in place, multiplied against the resident rows with one
dgemm, and merged into each row's carried top-k: only values (clamped
to [-1, 1]) at or above its k-th best are gathered. The query rows are
then searched against the test rows, sliced from the same matrix in
blocks of as many columns, through the same merge. Blocks are merged in
ascending order, and ties go to the ascending reference id. Every set
is read the same way, by its own `read_rows` into the engine's float64
buffers: in-memory sets (`Dataset`, `EmbeddingSet`) copy their rows,
file-backed ones (`ingest.open_dataset`, `ingest.open_embedding_set`)
read them from their files. So the reference's size never sets the
memory: that is the resident query and test rows plus one block and
its temporaries. Parallelism is the BLAS library's own threads. Results
are bit-identical for identical inputs, block budget and BLAS thread
count; across block budgets they agree within 1e-6.

`brute_force_correlations` is the deliberately naive oracle: per-pair
scalar Pearson with no shared standardization, used to verify the
blocked engine and refused at scales where the quadratic cost would be
abused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .core import (
    CHANNEL_MODES,
    Dataset,
    pearson,
    resolve_channel_mask,
    standardize_rows,
)
from .errors import InvalidArgumentError, UndefinedCorrelationError
from .ingest import DatasetFile, EmbeddingSet, EmbeddingSetFile

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
    """Exact comparison counts plus the engine's blocking.

    All queries stay resident (block_query = n_query). References stream
    in blocks of block_reference rows, as many as fit the budget with
    their per-block temporaries: per row, the float64 row itself (8*N
    bytes) and, per resident query, 17 bytes: a float64 tile entry, a
    one-byte pass mask and 8 for the merge's partition chunks.
    """
    if n_query < 0 or n_reference < 0:
        raise InvalidArgumentError("counts must be non-negative")
    if vector_length < 1:
        raise InvalidArgumentError("vector_length must be positive")
    if block_budget_mib <= 0:
        raise InvalidArgumentError("block budget must be positive")
    row_bytes = 8 * vector_length + 17 * n_query
    block = int(block_budget_mib * (1 << 20) // row_bytes)
    total = n_query * n_reference
    return ComparisonPlan(
        n_query=n_query,
        n_reference=n_reference,
        total_comparisons=total,
        vector_length=vector_length,
        block_query=max(1, n_query),
        block_reference=max(1, min(block, n_reference)),
        estimated_multiply_adds=total * vector_length,
    )


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------


def _tie_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of every id in ascending id order: equal correlations go
    to the lower rank."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _merge_block(best_v, best_r, tile, ranks, k):
    """Merge a block's raw tile (query rows x valid block columns, one rank
    per column) into the carried top-k, by value clipped to [-1, 1]
    descending, then rank ascending. Only values at or above a row's
    carried k-th best can enter it. Rows where more than k pass raise it
    to the block's own k-th largest (np.partition, in chunks of rows), and
    ties at it are cut to the lowest ranks: at most k values per row stay.
    """
    nq, m = tile.shape
    kept = best_v.shape[1]
    thr = best_v[:, -1] if kept == k else np.full(nq, -1.0)
    # clip(x) >= t is x >= t for a clipped t above -1; at -1 every x passes
    passed = tile >= np.where(thr > -1.0, thr, -np.inf)[:, None]
    busy = np.flatnonzero(passed.sum(axis=1, dtype=np.int32) > k)
    step = min(64, max(1, nq // 8))  # chunk copies stay within the budget's 8 bytes per query
    for c0 in range(0, busy.size, step):
        rows = busy[c0 : c0 + step]
        sub = np.clip(tile[rows], -1.0, 1.0)
        kth = np.partition(sub, m - k, axis=1)[:, [m - k]]
        keep = sub >= kth
        tied = np.flatnonzero(keep.sum(axis=1, dtype=np.int32) > k)
        if tied.size:  # keep the k smallest keys: values above kth, then ties by rank
            key = np.where(keep[tied], ranks, np.iinfo(np.int64).max)
            key[sub[tied] > kth[tied]] = -1
            keep[tied] = key <= np.partition(key, k - 1, axis=1)[:, k - 1, None]
        passed[rows] = keep
    hit_q, hit_c = np.divmod(np.flatnonzero(passed), m)
    slot = kept + np.arange(hit_q.size) - np.searchsorted(hit_q, hit_q)
    cand_v = np.hstack([best_v, np.full((nq, k), -np.inf)])
    cand_r = np.hstack([best_r, np.zeros((nq, k), dtype=np.int64)])
    cand_v[hit_q, slot] = np.clip(tile[hit_q, hit_c], -1.0, 1.0)
    cand_r[hit_q, slot] = ranks[hit_c]
    order = np.lexsort((cand_r, -cand_v), axis=1)[:, : min(k, kept + m)]
    return np.take_along_axis(cand_v, order, axis=1), np.take_along_axis(cand_r, order, axis=1)


def _valid_rows(rows: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Shift the valid rows of rows (n, width) to its front, in order,
    and return them as a view."""
    kept = np.flatnonzero(valid)
    if kept.size < len(rows):
        for dst in range(int(np.argmin(valid)), kept.size):  # from the first invalid row
            rows[dst] = rows[kept[dst]]
    return rows[: kept.size]


def _matches(query_ids, query_valid, best_v, best_r, reference_ids, ranks, skipped):
    """One TopKMatches per query from the merged (value, rank) arrays of
    its valid rows, in order; invalid queries get none."""
    id_by_rank = np.empty(len(reference_ids), dtype=object)
    id_by_rank[ranks] = list(reference_ids)
    matches = iter(zip(id_by_rank[best_r].tolist(), best_v.tolist()))
    return [
        TopKMatches(qid, tuple(zip(*next(matches))), skipped)
        if ok
        else TopKMatches(qid, (), skipped, query_valid=False)
        for qid, ok in zip(query_ids, query_valid)
    ]


def _run(
    query,
    reference,
    test,
    row_shape: tuple[int, ...],
    read_args: tuple,
    mode: str,
    k: int,
    block_budget_mib: float,
    progress: Optional[ProgressFn],
):
    """Top-k of every query and test row against every reference row:
    query and test standardized once into one resident float64 matrix,
    references read once, block by block, with one dgemm per block. Given
    a test set, the query rows are then searched against the valid test
    rows, sliced from that matrix in blocks of as many columns. Every set
    is read by its own read_rows(i0, i1, out, *read_args) into float64
    rows of row_shape: (channels, H*W) for images, (dim,) for embeddings."""
    sets = (query,) if test is None else (query, test)
    reference_ids = reference.ids
    nr = len(reference_ids)
    q_all = np.empty((sum(map(len, sets)), *row_shape), dtype=np.float64)
    q0 = 0
    for s in sets:
        s.read_rows(0, len(s), q_all[q0 : q0 + len(s)], *read_args)
        q0 += len(s)
    segments = row_shape if len(row_shape) == 2 else (1, *row_shape)  # an embedding: one
    q_all, q_valid = standardize_rows(q_all.reshape(len(q_all), *segments), mode)
    q_mat = _valid_rows(q_all, q_valid)
    nq, n = q_mat.shape[0], len(query)
    ns = int(q_valid[:n].sum())  # q_mat: valid query rows, then valid test rows
    total = nq * nr + (0 if test is None else ns * (nq - ns))

    plan = plan_audit(len(q_all), nr, q_mat.shape[1], block_budget_mib)
    ranks = _tie_ranks(reference_ids)
    buffer = np.empty((plan.block_reference, *row_shape), dtype=np.float64)
    best_v = np.empty((nq, 0), dtype=np.float64)
    best_r = np.empty((nq, 0), dtype=np.int64)
    skipped = 0
    for r0 in range(0, nr, plan.block_reference):  # ascending: deterministic merges
        r1 = min(r0 + plan.block_reference, nr)
        rows = buffer[: r1 - r0]
        reference.read_rows(r0, r1, rows, *read_args)
        values, valid = standardize_rows(rows.reshape(r1 - r0, *segments), mode)
        block = _valid_rows(values, valid)
        skipped += r1 - r0 - block.shape[0]
        if nq and block.shape[0]:
            best_v, best_r = _merge_block(
                best_v, best_r, q_mat @ block.T, ranks[r0:r1][valid], k
            )
        if progress is not None:
            progress(nq * r1, total)
    if progress is not None and total == 0:
        progress(0, 0)
    found = _matches(
        [i for s in sets for i in s.ids], q_valid, best_v, best_r, reference_ids, ranks, skipped
    )
    if test is None:
        return found

    test_ranks = _tie_ranks(test.ids)
    valid_ranks = test_ranks[q_valid[n:]]
    best_v = np.empty((ns, 0), dtype=np.float64)
    best_r = np.empty((ns, 0), dtype=np.int64)
    for c0 in range(0, nq - ns, plan.block_reference):  # ascending, as the reference
        c1 = min(c0 + plan.block_reference, nq - ns)
        if ns:
            tile = q_mat[:ns] @ q_mat[ns + c0 : ns + c1].T
            best_v, best_r = _merge_block(best_v, best_r, tile, valid_ranks[c0:c1], k)
        if progress is not None:
            progress(nq * nr + ns * c1, total)
    skipped = len(test) - (nq - ns)
    return found[:n], found[n:], _matches(
        query.ids, q_valid[:n], best_v, best_r, test.ids, test_ranks, skipped
    )


ImageSet = Union[Dataset, DatasetFile]
EmbeddingRows = Union[EmbeddingSet, EmbeddingSetFile]


def max_correlations(
    query: ImageSet,
    reference: ImageSet,
    channel_mask: Optional[Iterable[int]] = None,
    k: int = 5,
    mode: str = "concat",
    block_budget_mib: float = DEFAULT_BLOCK_BUDGET_MIB,
    progress: Optional[ProgressFn] = None,
    *,
    test: Optional[ImageSet] = None,
):
    """Top-k highest correlations for every query image against all
    valid reference images, as a list in query order.

    reference is a Dataset or a DatasetFile (open_dataset), which is
    read once, block by block. Given a test set, it is searched against
    the reference in the same pass, and the query is then searched
    against it too: the result is (query_vs_reference, test_vs_reference,
    query_vs_test), and every set is read once. Agrees with
    brute_force_correlations within 1e-6 per entry. Constant reference
    (or test) images are excluded (counted in skipped_invalid); constant
    queries come back with query_valid=False and no matches.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if len(reference) == 0:
        raise InvalidArgumentError("reference dataset is empty")
    for name, s in (("query", query), ("test", test)):
        if s is not None and len(s) and s.shape != reference.shape:
            raise InvalidArgumentError(
                f"dimension mismatch: {name} {s.shape} vs reference {reference.shape}"
            )
    if mode not in CHANNEL_MODES:
        raise InvalidArgumentError(f"unknown channel mode {mode!r}")
    c, h, w = reference.shape
    mask = list(resolve_channel_mask(channel_mask, c))
    return _run(
        query, reference, test, (len(mask), h * w), (mask,), mode, k, block_budget_mib,
        progress,
    )


def max_correlations_embeddings(
    query: EmbeddingRows,
    reference: EmbeddingRows,
    k: int = 5,
    metric: str = "pearson",
    block_budget_mib: float = DEFAULT_BLOCK_BUDGET_MIB,
    progress: Optional[ProgressFn] = None,
    *,
    test: Optional[EmbeddingRows] = None,
):
    """max_correlations over embedding rows instead of images, with the
    same test keyword and results.

    query, reference and test are EmbeddingSets or EmbeddingSetFiles
    (open_embedding_set). metric="pearson" centers each row before
    normalizing; "cosine" is the plain dot product of L2-normalized rows.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    for name, s in (("query", query), ("test", test)):
        if s is not None and s.dim != reference.dim:
            raise InvalidArgumentError(
                f"dimension mismatch: {name} dim {s.dim} vs reference {reference.dim}"
            )
    if metric not in ("pearson", "cosine"):
        raise InvalidArgumentError(f"unknown embedding metric {metric!r}")
    return _run(
        query, reference, test, (reference.dim,), (), metric, k, block_budget_mib, progress
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
