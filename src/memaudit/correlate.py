"""All-pairs correlation engine: every query row against every reference
row, keeping the top-k per query.

`max_correlations` is its one entry point. Every set is a row source:
a `shape`, (C, H, W) for images or (1, dim) for embeddings (one-channel
rows), and `read_rows(i0, i1, out, channels)` into the engine's float64
buffers. So both kinds take one path, standardized by
`core.standardize_rows`; the kind only names the modes. In-memory sets
(`Dataset`, `EmbeddingSet`) copy their rows, file-backed ones
(`ingest.open_dataset`, `ingest.open_embedding_set`) read their files.
The query rows and, given one, the test rows (an audit's synthetic and
held-out sets) are read and standardized once into one resident matrix.
Two searches then share one loop over ascending blocks of columns, with
one GEMM per block merged into each row's carried top-k: only values
(clamped to [-1, 1]) at or above its k-th best are kept, and ties go to
the ascending reference id. The first reads the reference once, in
blocks of rows sized by the block budget, standardized in place in one
reused buffer; the second takes the test rows from the resident matrix
in blocks of as many columns. So memory is the resident rows plus one
block and its temporaries, whatever the reference's size. Every row
range read (the resident rows, each reference block) is split into
contiguous ranges, one per CPU this process may run on, which are read
and standardized on a thread pool: zlib, file reads and numpy's loops
release the GIL. The GEMM and the merge run on the calling thread only
after every range is done, so the BLAS library's own threads never share
the CPUs with the pool.

Rows of more than SCREEN_MAX_LENGTH values (images of paper size) take a
dgemm of the float64 rows, and a value is its tile entry. Shorter rows
(embeddings, small images) take the float32 screen: the resident matrix
is cast to float32 once and each block as it comes, and an sgemm gives
each pair's value within a rigorous band (see _tile). The merge keeps
the entries within that band of a query's carried k-th best (and of the
block's own k-th best), and only those are valued exactly: the pairwise
float64 sum of the two standardized rows' products (_dots), ranked and
cut as above. Screened values do not depend on the block budget or the
BLAS library's threads. Results are bit-identical for identical inputs,
block budget, BLAS thread count and CPU count (a row standardizes to the
same bits in any range); across block budgets they agree within 1e-6 on
the dgemm path and bit for bit on the screened one.

`brute_force_correlations` is the deliberately naive oracle: per-pair
scalar Pearson with no shared standardization, used to verify the
blocked engine and refused at scales where the quadratic cost would be
abused.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import core
from .core import (
    CHANNEL_MODES,
    Dataset,
    pearson,
    resolve_channel_mask,
    standardize_rows,
)
from .errors import InvalidArgumentError, UndefinedCorrelationError

DEFAULT_BLOCK_BUDGET_MIB = 32.0
DEFAULT_K = 5
BRUTE_FORCE_LIMIT = 10_000_000
SCREEN_MAX_LENGTH = 1024  # rows no longer than this take the float32 screen
_DOT_VALUES = 1 << 15  # products per chunk of _dots: two 256 KiB buffers

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
    n_test: int = 0,
) -> ComparisonPlan:
    """Exact comparison counts plus the blocking of max_correlations, which
    calls this too, so an audit report's plan is the engine's.

    Queries and test rows stay resident (block_query = n_query + n_test).
    References stream in blocks of block_reference rows, as many as fit
    the budget with their per-block temporaries. Rows of at most
    SCREEN_MAX_LENGTH values (the float32 screen) hold, per row, the
    float64 row and its float32 copy (12*N bytes) and, per resident row,
    13 bytes: a float32 tile entry, a one-byte pass mask and 8 for the
    merge's chunks (partitions and the exactly valued entries). Longer
    rows hold the float64 row (8*N bytes) and, per resident row, 17
    bytes: a float64 tile entry, the mask and the chunks. Outside the
    budget are the resident rows (and their float32 copy when screened),
    the exact valuation's two 256 KiB row buffers and the readers'
    scratch: one payload (or chunk) buffer per worker thread of a
    file-backed set.
    """
    if min(n_query, n_reference, n_test) < 0:
        raise InvalidArgumentError("counts must be non-negative")
    if vector_length < 1:
        raise InvalidArgumentError("vector_length must be positive")
    if not 0 < block_budget_mib < math.inf:  # NaN too
        raise InvalidArgumentError("block budget must be positive and finite")
    resident = n_query + n_test
    if vector_length <= SCREEN_MAX_LENGTH:
        row_bytes = 12 * vector_length + 13 * resident
    else:
        row_bytes = 8 * vector_length + 17 * resident
    block = int(block_budget_mib * (1 << 20) // row_bytes)
    total = n_query * n_reference
    return ComparisonPlan(
        n_query=n_query,
        n_reference=n_reference,
        total_comparisons=total,
        vector_length=vector_length,
        block_query=max(1, resident),
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


def _screen_floor(t, band, dtype):
    """The least tile entry, of dtype, whose value can clip to at least
    clip(t) when every entry lies within band of its value: t (at most 1)
    less band, rounded down; -inf where t is -1 or below, which every
    value clips to."""
    lo = np.where(t > -1.0, np.minimum(t, 1.0) - band, -np.inf)
    floor = lo.astype(dtype)
    up = floor > lo
    floor[up] = np.nextafter(floor[up], -np.inf)
    return floor


def _first_k(q, v, r, k):
    """Positions of the k smallest (-v, r) entries of each row q (entries
    grouped by ascending q), in that order within each row."""
    order = np.lexsort((r, -v, q))
    q = q[order]
    return order[np.arange(q.size) - np.searchsorted(q, q) < k]


def _merge_block(best_v, best_r, ranks, k, tile, band=0.0, exact=None):
    """Merge a block's raw tile (query rows x valid block columns, one rank
    per column) into the carried top-k, by value clipped to [-1, 1]
    descending, then rank ascending. A pair's value is exact(rows,
    columns), and its tile entry lies within band of it; with no exact,
    the values are the tile's own entries (band 0). Only entries within
    band below a row's carried k-th best can enter it. Rows where more
    than k pass are also cut below the block's own k-th largest entry
    less twice band (np.partition, in chunks of rows), since the block's
    k-th best value lies within band of it. Every threshold is rounded
    down to the tile's dtype. The entries left are valued, and ties at a
    row's k-th best are cut to the lowest ranks, so at most k values per
    row reach the final sort.
    """
    nq, m = tile.shape
    kept = best_v.shape[1]
    thr = best_v[:, -1] if kept == k else np.full(nq, -1.0)
    lo = _screen_floor(thr, band, tile.dtype)
    passed = tile >= lo[:, None]
    busy = np.flatnonzero(passed.sum(axis=1, dtype=np.int32) > k)
    cand_v = np.hstack([best_v, np.full((nq, k), -np.inf)])
    cand_r = np.hstack([best_r, np.zeros((nq, k), dtype=np.int64)])

    def enter(hit_q, hit_c, cut):  # hit_q ascending
        v = np.clip(tile[hit_q, hit_c] if exact is None else exact(hit_q, hit_c), -1.0, 1.0)
        if cut:
            first = _first_k(hit_q, v, ranks[hit_c], k)
            hit_q, hit_c, v = hit_q[first], hit_c[first], v[first]
        slot = kept + np.arange(hit_q.size) - np.searchsorted(hit_q, hit_q)
        cand_v[hit_q, slot] = v
        cand_r[hit_q, slot] = ranks[hit_c]

    step = min(64, max(1, nq // 8))  # chunk copies stay within the budget's 8 bytes per query
    for c0 in range(0, busy.size, step):
        rows = busy[c0 : c0 + step]
        sub = tile[rows]
        kth = np.partition(sub, m - k, axis=1)[:, m - k].astype(np.float64)
        cut = np.maximum(lo[rows], _screen_floor(kth - band, band, tile.dtype))
        hit_q, hit_c = np.divmod(np.flatnonzero(sub >= cut[:, None]), m)
        enter(rows[hit_q], hit_c, True)
        passed[rows] = False
    enter(*np.divmod(np.flatnonzero(passed), m), False)
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


def _dots(a, b, ia, ib):
    """a[ia[j]] . b[ib[j]] for every j, each the pairwise sum of its
    products in row order (np.multiply(...).sum(axis=1)), so a pair's
    value does not depend on which pairs are valued with it (einsum sums
    a lone row another way). Pairs go in chunks of at most _DOT_VALUES
    products, through two buffers reused from chunk to chunk (fresh pages
    for every chunk cost more than the arithmetic)."""
    out = np.empty(ia.size)
    step = max(1, min(ia.size, _DOT_VALUES // a.shape[1]))
    rows_a, rows_b = np.empty((2, step, a.shape[1]))
    for j in range(0, ia.size, step):
        n = min(step, ia.size - j)
        x, y = rows_a[:n], rows_b[:n]
        np.take(a, ia[j : j + n], axis=0, out=x, mode="clip")  # "raise" copies to a fresh buffer
        np.take(b, ib[j : j + n], axis=0, out=y, mode="clip")
        out[j : j + n] = np.multiply(x, y, out=x).sum(axis=1)
    return out


def _tile(queries, screen, rows, cast):
    """A block's tile, with _merge_block's band and exact for it. Without
    screen, a dgemm of the float64 rows, valued by its own entries (band
    0). With screen (the queries in float32), an sgemm against the rows
    cast into cast, valued by the float64 rows' _dots. For rows of norm 1
    and length K, the two casts and a float32 sum in any order put an
    entry within gamma(K + 2) of the exact product, where gamma(n) =
    n*u / (1 - n*u) and u = 2**-24 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, (3.5) and Lemma 3.3). band is gamma(K +
    3): the one more u covers the rows' norms and the float64 values' own
    rounding, both below 1e-12 at K <= SCREEN_MAX_LENGTH."""
    if screen is None:
        return queries @ rows.T, 0.0, None
    rows32 = cast[: len(rows)]
    np.copyto(rows32, rows)
    units = (rows.shape[1] + 3) * 2.0**-24
    band = units / (1.0 - units)
    return screen @ rows32.T, band, partial(_dots, queries, rows)


def _search(queries, screen, n, step, block, k, progress, done, total):
    """Top-k of every row of queries against n columns, merged block by
    block in ascending order (deterministic merges): block(c0, c1) gives
    the valid standardized rows among columns c0..c1-1 and their ranks.
    screen is the queries' float32 copy, for the screened tile, or None
    (see _tile). Progress counts done plus the comparisons made so far.
    Returns the merged (value, rank) arrays and the number of valid
    columns."""
    best_v = np.empty((len(queries), 0), dtype=np.float64)
    best_r = np.empty((len(queries), 0), dtype=np.int64)
    cast = None if screen is None else np.empty((step, queries.shape[1]), dtype=np.float32)
    n_valid = 0
    for c0 in range(0, n, step):
        c1 = min(c0 + step, n)
        rows, ranks = block(c0, c1)
        n_valid += len(rows)
        if len(queries) and len(rows):
            best_v, best_r = _merge_block(  # the tile dies with the merge: one at a time
                best_v, best_r, ranks, k, *_tile(queries, screen, rows, cast)
            )
        if progress is not None:
            progress(done + len(queries) * c1, total)
    return best_v, best_r, n_valid


def _read_standardized(pool, workers, parts, out, channels, mode):
    """Read the rows of parts, (set, i0, i1) ranges laid end to end, into
    out (n, len(channels), L) and standardize them in place by mode. The
    rows are split into contiguous ranges, at most workers and one row
    each at least; the first is done on this thread and the others on
    pool. Every range has finished when this returns or raises, and a
    failure raised is that of the lowest failing range, so of the
    lowest-index bad row. Returns standardize_rows' valid for out."""
    n = len(out)
    w = max(1, min(workers, n))
    bounds = [n * j // w for j in range(w + 1)]

    def work(a, b):
        pos = 0
        for rows, i0, i1 in parts:
            lo, hi = max(a, pos), min(b, pos + i1 - i0)
            if lo < hi:
                rows.read_rows(i0 + lo - pos, i0 + hi - pos, out[lo:hi], channels)
            pos += i1 - i0
        return standardize_rows(out[a:b], mode)[1]

    rest = [pool.submit(work, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    try:
        valid = [work(bounds[0], bounds[1])]
    finally:
        wait(rest)
    valid += [f.result() for f in rest]
    return np.concatenate(valid)


# By the rank of a set's shape: what it holds, its modes (default first), their name
_KINDS = {
    3: ("images", CHANNEL_MODES, "channel mode"),
    2: ("embeddings", ("pearson", "cosine"), "embedding metric"),
}


def max_correlations(
    query,
    reference,
    channel_mask: Optional[Iterable[int]] = None,
    k: int = DEFAULT_K,
    mode: Optional[str] = None,
    block_budget_mib: float = DEFAULT_BLOCK_BUDGET_MIB,
    progress: Optional[ProgressFn] = None,
    *,
    test=None,
):
    """Top-k highest correlations for every query row against all valid
    reference rows, as a list in query order.

    query, reference and test are all image sets (Dataset, or DatasetFile
    from open_dataset) or all embedding sets (EmbeddingSet, or
    EmbeddingSetFile from open_embedding_set), and the non-empty ones have
    one shape. Images correlate their channel_mask channels by mode
    "concat" (default: one Pearson over all of them) or "mean" (of
    per-channel correlations). Embeddings take no channel_mask, and mode
    "pearson" (default) or "cosine" (the dot product of L2-normalized
    rows); an empty query has no matches. Given a test set, it is searched
    against the reference in the same pass, and the query is then
    searched against it too: the result is (query_vs_reference,
    test_vs_reference, query_vs_test), and every set is read once. Agrees
    with brute_force_correlations within 1e-6 per entry. Constant
    reference (or test) rows are excluded (counted in skipped_invalid);
    constant queries come back with query_valid=False and no matches.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if len(reference) == 0:
        raise InvalidArgumentError("reference dataset is empty")
    kind, modes, what = _KINDS[len(reference.shape)]
    sets = [("query", query)] + ([] if test is None else [("test", test)])
    for name, s in sets:
        if len(s) and s.shape != reference.shape:
            held = _KINDS[len(s.shape)][0]
            raise InvalidArgumentError(
                f"{'dimension' if held == kind else 'kind'} mismatch: {name} {held} {s.shape} "
                f"vs reference {kind} {reference.shape}"
            )
    if kind == "embeddings" and channel_mask is not None:
        raise InvalidArgumentError("channel_mask applies to images only")
    mode = modes[0] if mode is None else mode
    if mode not in modes:
        raise InvalidArgumentError(f"unknown {what} {mode!r}")
    mask = resolve_channel_mask(channel_mask, reference.shape[0])
    row_shape = (len(mask), math.prod(reference.shape[1:]))
    reference_ids, n = reference.ids, len(query)
    nr, workers = len(reference_ids), core.worker_count()
    plan = plan_audit(n, nr, math.prod(row_shape), block_budget_mib, len(test or ()))
    if n == 0 and test is None:
        return []

    # Every set is read by its own read_rows(i0, i1, out, mask) into float64
    # rows of row_shape, which the GEMM sees as plan.vector_length values.
    # Query and test are standardized once into one resident matrix, and
    # references block by block; each read is split among one pool's threads.
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # threads start on first use

        def read(parts, out):
            rows = out.reshape(len(out), *row_shape)
            return _read_standardized(pool, workers, parts, rows, mask, mode)

        q_all = np.empty((sum(len(s) for _, s in sets), plan.vector_length), dtype=np.float64)
        q_valid = read([(s, 0, len(s)) for _, s in sets], q_all)
        q_mat = _valid_rows(q_all, q_valid)
        nq = q_mat.shape[0]
        q32 = q_mat.astype(np.float32) if plan.vector_length <= SCREEN_MAX_LENGTH else None
        ns = int(q_valid[:n].sum())  # q_mat: valid query rows, then valid test rows
        total = nq * nr + (0 if test is None else ns * (nq - ns))

        ranks = _tie_ranks(reference_ids)
        buffer = np.empty((plan.block_reference, plan.vector_length), dtype=np.float64)

        def reference_block(r0, r1):
            valid = read([(reference, r0, r1)], buffer[: r1 - r0])
            return _valid_rows(buffer[: r1 - r0], valid), ranks[r0:r1][valid]

        best_v, best_r, n_valid = _search(
            q_mat, q32, nr, plan.block_reference, reference_block, k, progress, 0, total
        )
    found = _matches(
        [i for _, s in sets for i in s.ids], q_valid, best_v, best_r, reference_ids, ranks,
        nr - n_valid,
    )
    if test is None:
        return found

    test_ranks = _tie_ranks(test.ids)
    valid_ranks = test_ranks[q_valid[n:]]
    best_v, best_r, n_valid = _search(  # the test rows, sliced from the resident matrix
        q_mat[:ns], None if q32 is None else q32[:ns], nq - ns, plan.block_reference,
        lambda c0, c1: (q_mat[ns + c0 : ns + c1], valid_ranks[c0:c1]),
        k, progress, nq * nr, total,
    )
    return found[:n], found[n:], _matches(
        query.ids, q_valid[:n], best_v, best_r, test.ids, test_ranks, len(test) - n_valid
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
