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
reused buffer; the second takes the test rows from the resident matrix,
so its blocks cost only their tile and are as wide as the budget holds
tiles. So memory is the resident rows plus one block and its
temporaries, whatever the reference's size. Every row range read (the
resident rows, each reference block) is split into contiguous ranges,
one per CPU this process may run on, which are read and standardized on
a thread pool: zlib, file reads and numpy's loops release the GIL. The
GEMM and the merge run on the calling thread only after every range is
done, and no worker calls BLAS. But after each product OpenBLAS's own
threads spin for up to about 0.1 s by default, beside the pool's next
reads; the command line (memaudit.cli) sets OPENBLAS_THREAD_TIMEOUT to 4
before numpy loads, unless the caller set it, so they sleep at once. On
the benchmark's three workloads (2 CPUs) that cut an audit's CPU time by
25-29%, and paper-mri's audit time by 8%. A library caller that loaded
numpy first keeps its BLAS library's setting.

Where a block of whole image rows would be narrower than the dgemm
needs (GEMM_KNEE_COLUMNS, see plan_audit), reference blocks are read in
panels, one masked channel at a time (read_panels), so the same budget
holds C times as many rows. Each panel is standardized on its own
(core.standardize_panel), and the block's tile is the sum of one dgemm
per panel against a strided view of the queries' columns of that
channel; under "concat" a per-channel mean correction and the row's
norm then finish it (see _panel_blocks). The readers keep a running
CRC-32 per entry and raise the lowest bad entry's fault after the last
panel, before the merge.

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
block budget, BLAS thread count and CPU count (a row or panel
standardizes to the same bits in any range); across block budgets they
agree within 1e-6 on the dgemm path, with or without panels, and bit for
bit on the screened one.

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
    VARIANCE_FLOOR,
    Dataset,
    pearson,
    resolve_channel_mask,
    standardize_panel,
    standardize_rows,
)
from .errors import InvalidArgumentError, UndefinedCorrelationError

DEFAULT_BLOCK_BUDGET_MIB = 32.0
DEFAULT_K = 5
BRUTE_FORCE_LIMIT = 10_000_000
SCREEN_MAX_LENGTH = 1024  # rows no longer than this take the float32 screen
# The narrowest reference block at which the dgemm runs near its rate: 64
# resident rows x 65,536 values ran at 2.6 GMAC/s on 15 columns, 18 on 64.
# Wider blocks stay whole rows: panels at every width slowed a CLI audit of
# 828 train, 100 synthetic and 138 test 5x64x64 images (248-row blocks, or
# one 828-row panel block) from 0.664 to 0.694 s and 0.669 to 0.705 s (medians
# of two batches of 12 alternating pairs, 2 cores; whole rows won 9 and 10)
GEMM_KNEE_COLUMNS = 64
# Block bytes per resident row and reference row, beside the rows: a float32
# (screen) or float64 tile entry, a pass mask byte and 8 for the merge's
# chunks; in panels, 8 more for one panel's product
_SCREEN_ENTRY, _DGEMM_ENTRY, _PANEL_ENTRY = 13, 17, 25
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


def _blocking(
    resident: int, n_reference: int, vector_length: int, channels: int, budget_mib: float
) -> tuple[int, bool]:
    """(rows per reference block, whether blocks are read in panels): see
    plan_audit."""
    budget = budget_mib * (1 << 20)
    if vector_length <= SCREEN_MAX_LENGTH:
        return int(budget // (12 * vector_length + _SCREEN_ENTRY * resident)), False
    block = int(budget // (8 * vector_length + _DGEMM_ENTRY * resident))
    if channels > 1 and block < min(n_reference, GEMM_KNEE_COLUMNS):
        length = vector_length // channels
        ones = 8 * length + 16 * resident  # the row of ones and its two product entries
        panel = int((budget - ones) // (8 * length + 16 * channels + _PANEL_ENTRY * resident))
        if panel > block:
            return panel, True
    return block, False


def plan_audit(
    n_query: int,
    n_reference: int,
    vector_length: int,
    block_budget_mib: float = DEFAULT_BLOCK_BUDGET_MIB,
    n_test: int = 0,
    *,
    channels: int = 1,
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
    bytes: a float64 tile entry, the mask and the chunks.

    A longer row made of channels > 1 equal channels (the masked channels
    of an image) is read one channel, a panel, at a time when a block of
    whole rows would hold fewer than min(n_reference,
    GEMM_KNEE_COLUMNS) rows, and a block of panels holds more: the dgemm
    runs far below its rate on narrower blocks. A panel row holds its
    float64 channel (8*N/channels bytes), its channel means and sums of
    squares (16 bytes a channel) and, per resident row, 25 bytes: the
    accumulated tile entry, the entry of one panel's product, the mask
    and the chunks. One more one-channel row, of ones, and its tile and
    product entries are counted once per block. Outside the budget are
    the resident rows (and their float32 copy when screened, or their
    per-channel sums when in panels), the exact valuation's two 256 KiB
    row buffers and the readers' scratch: one payload (or chunk) buffer
    per worker thread of a file-backed set.
    """
    if min(n_query, n_reference, n_test) < 0:
        raise InvalidArgumentError("counts must be non-negative")
    if vector_length < 1:
        raise InvalidArgumentError("vector_length must be positive")
    if channels < 1 or vector_length % channels:
        raise InvalidArgumentError("channels must be positive and divide vector_length")
    if not 0 < block_budget_mib < math.inf:  # NaN too
        raise InvalidArgumentError("block budget must be positive and finite")
    resident = n_query + n_test
    block, _ = _blocking(resident, n_reference, vector_length, channels, block_budget_mib)
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


def _tile(queries, screen, rows, rows32):
    """A block's tile, with _merge_block's band and exact for it. Without
    screen, a dgemm of the float64 rows, valued by its own entries (band
    0). With screen (the queries in float32), an sgemm against rows32,
    the rows in float32, valued by the float64 rows' _dots. For rows of
    norm 1 and length K, the two casts and a float32 sum in any order put
    an entry within gamma(K + 2) of the exact product, where gamma(n) =
    n*u / (1 - n*u) and u = 2**-24 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, (3.5) and Lemma 3.3). band is gamma(K +
    3): the one more u covers the rows' norms and the float64 values' own
    rounding, both below 1e-12 at K <= SCREEN_MAX_LENGTH."""
    if screen is None:
        return queries @ rows.T, 0.0, None
    units = (rows.shape[1] + 3) * 2.0**-24
    band = units / (1.0 - units)
    return screen @ rows32.T, band, partial(_dots, queries, rows)


def _search(n_queries, n, step, block, k, progress, done, total):
    """Top-k of n_queries rows against n columns, merged block by block in
    ascending order (deterministic merges): block(c0, c1) gives the ranks
    of the valid columns among c0..c1-1 and a function that makes their
    tile, with its band and exact (see _tile and _merge_block), called
    only when there are queries. Progress counts done plus the
    comparisons made so far. Returns the merged (value, rank) arrays and
    the number of valid columns."""
    best_v = np.empty((n_queries, 0), dtype=np.float64)
    best_r = np.empty((n_queries, 0), dtype=np.int64)
    n_valid = 0
    for c0 in range(0, n, step):
        c1 = min(c0 + step, n)
        ranks, tile = block(c0, c1)
        n_valid += len(ranks)
        if n_queries and len(ranks):
            best_v, best_r = _merge_block(  # the tile dies with the merge: one at a time
                best_v, best_r, ranks, k, *tile()
            )
        if progress is not None:
            progress(done + n_queries * c1, total)
    return best_v, best_r, n_valid


def _ranges(n, workers):
    """0..n-1 split into contiguous (a, b) ranges, at most workers and one
    row each at least (one empty range for n = 0)."""
    w = max(1, min(workers, n))
    bounds = [n * j // w for j in range(w + 1)]
    return list(zip(bounds, bounds[1:]))


def _on_ranges(pool, ranges, work):
    """[work(a, b) for (a, b) in ranges]: the first on this thread, the
    others on pool. Every call has finished when this returns or raises,
    and a failure raised is that of the lowest failing range."""
    rest = [pool.submit(work, a, b) for a, b in ranges[1:]]
    try:
        first = work(*ranges[0])
    finally:
        wait(rest)
    return [first] + [f.result() for f in rest]


def _read_standardized(pool, workers, parts, out, channels, mode):
    """Read the rows of parts, (set, i0, i1) ranges laid end to end, into
    out (n, len(channels), L) and standardize them in place by mode, on
    _on_ranges of workers ranges, so a failure raised is that of the
    lowest-index bad row. Returns standardize_rows' valid for out."""

    def work(a, b):
        pos = 0
        for rows, i0, i1 in parts:
            lo, hi = max(a, pos), min(b, pos + i1 - i0)
            if lo < hi:
                rows.read_rows(i0 + lo - pos, i0 + hi - pos, out[lo:hi], channels)
            pos += i1 - i0
        return standardize_rows(out[a:b], mode)[1]

    return np.concatenate(_on_ranges(pool, _ranges(len(out), workers), work))


def _panel_blocks(pool, workers, reference, channels, mode, queries, step, ranks):
    """block(r0, r1) of _search for reference rows read in panels, one
    channel at a time, into one reused buffer of step one-channel rows.

    Each panel is read by reference.read_panels on _on_ranges of workers
    ranges and standardized on its own (core.standardize_panel), then its
    dgemm against the queries' columns of that channel (a strided view,
    not a copy) is added to the block's tile. The tile is reference-major,
    a row per block row: at 65,536 values that dgemm ran 1.17-1.31x faster
    than queries x rows, at 64 to 2,000 resident rows. The merge reads its
    transpose. After the last panel the readers finish, so the lowest-index
    bad row raises before any merge.
    Under "mean" every panel is a segment of the standardized row, so the
    tile is done. Under "concat" panel c was centered by its own mean
    mu_c, not the row's mean mu; the queries are centered, so adding
    S_c(q) * (mu_c - mu) over the channels, where S_c(q) is the sum of a
    query's channel c, gives each entry's dot with the centered row. Its
    squared norm is the sum of the panels' squares plus L * sum_c (mu_c -
    mu)**2, which also decides validity as standardize_rows' would; each
    tile row is divided by its square root. S_c(q) comes from each panel's
    dgemm too, as its product with a row of ones after the block's rows,
    so no pass of its own reads the resident matrix."""
    nq, segments = len(queries), len(channels)
    length = queries.shape[1] // segments
    ones = int(mode == "concat")  # a row of ones after the block's rows: S_c(q) in the dgemm
    rows = np.empty((step + ones, length))
    tile_buf, product_buf = np.empty((2, nq * (step + ones)))
    moments = np.empty((2, segments, step))  # each panel's means and squares
    ok = np.empty((segments, step), dtype=bool)
    sums = np.empty((segments, nq))

    def block(r0, r1):
        m = r1 - r0
        width = m + ones
        tile = tile_buf[: nq * width].reshape(width, nq)  # contiguous: matmul writes in place
        product = product_buf[: nq * width].reshape(width, nq)
        rows[m:width] = 1.0
        ranges = _ranges(m, workers)
        readers = {
            a: reference.read_panels(r0 + a, r0 + b, rows[a:b, None], [(c,) for c in channels])
            for a, b in ranges
        }
        for p in range(segments):

            def work(a, b, p=p):
                next(readers[a])
                moments[0, p, a:b], moments[1, p, a:b], ok[p, a:b] = standardize_panel(
                    rows[a:b], mode, segments
                )

            _on_ranges(pool, ranges, work)
            panel = queries[:, p * length : (p + 1) * length]
            np.matmul(rows[:width], panel.T, out=product if p else tile)
            if ones:
                sums[p] = (product if p else tile)[m]
            if p:
                tile += product
        _on_ranges(pool, ranges, lambda a, b: next(readers[a], None))  # faults raise here
        tile, product = tile[:m], product[:m]
        if mode == "mean":
            valid = ok[:, :m].all(axis=0)
        else:
            means, squares = moments[:, :, :m]
            shift = means - means.mean(axis=0)
            tile += np.matmul(shift.T, sums, out=product)
            norm = squares.sum(axis=0) + length * (shift * shift).sum(axis=0)
            valid = norm / (segments * length) >= VARIANCE_FLOOR
            tile /= np.sqrt(np.where(valid, norm, 1.0))[:, None]
        tile = _valid_rows(tile, valid)
        return ranks[r0:r1][valid], lambda: (tile.T, 0.0, None)

    return block


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
    reference_ids, n, n_test = reference.ids, len(query), len(test or ())
    nr, workers = len(reference_ids), core.worker_count()
    plan = plan_audit(
        n, nr, math.prod(row_shape), block_budget_mib, n_test, channels=len(mask)
    )
    if n == 0 and test is None:
        return []
    _, panels = _blocking(n + n_test, nr, plan.vector_length, len(mask), block_budget_mib)

    # Every set is read by its own read_rows(i0, i1, out, mask) into float64
    # rows of row_shape, which the GEMM sees as plan.vector_length values;
    # or, for reference blocks in panels, by read_panels a channel at a time.
    # Query and test are standardized once into one resident matrix, and
    # references block by block; each read is split among one pool's threads.
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # threads start on first use

        def read(parts, out):
            rows = out.reshape(len(out), *row_shape)
            return _read_standardized(pool, workers, parts, rows, mask, mode)

        q_all = np.empty((n + n_test, plan.vector_length), dtype=np.float64)
        q_valid = read([(s, 0, len(s)) for _, s in sets], q_all)
        q_mat = _valid_rows(q_all, q_valid)
        nq = q_mat.shape[0]
        q32 = q_mat.astype(np.float32) if plan.vector_length <= SCREEN_MAX_LENGTH else None
        ns = int(q_valid[:n].sum())  # q_mat: valid query rows, then valid test rows
        total = nq * nr + (0 if test is None else ns * (nq - ns))
        ranks = _tie_ranks(reference_ids)
        step = plan.block_reference

        if panels:
            reference_block = _panel_blocks(pool, workers, reference, mask, mode, q_mat, step, ranks)
        else:
            buffer = np.empty((step, plan.vector_length), dtype=np.float64)
            cast = None if q32 is None else np.empty(buffer.shape, dtype=np.float32)

            def reference_block(r0, r1):
                valid = read([(reference, r0, r1)], buffer[: r1 - r0])
                rows = _valid_rows(buffer[: r1 - r0], valid)

                def tile():
                    if cast is None:
                        return _tile(q_mat, None, rows, None)
                    np.copyto(cast[: len(rows)], rows)
                    return _tile(q_mat, q32, rows, cast[: len(rows)])

                return ranks[r0:r1][valid], tile

        best_v, best_r, n_valid = _search(
            nq, nr, step, reference_block, k, progress, 0, total
        )
    found = _matches(
        [i for _, s in sets for i in s.ids], q_valid, best_v, best_r, reference_ids, ranks,
        nr - n_valid,
    )
    if test is None:
        return found

    # The test rows are sliced from the resident matrix (and its float32
    # copy), so a block of them costs only its tile: as many columns as
    # the budget holds tile entries of the ns query rows.
    test_ranks = _tie_ranks(test.ids)
    valid_ranks = test_ranks[q_valid[n:]]
    entry = _SCREEN_ENTRY if q32 is not None else _DGEMM_ENTRY
    width = max(1, int(block_budget_mib * (1 << 20) // (entry * max(1, ns))))
    best_v, best_r, n_valid = _search(
        ns, nq - ns, width,
        lambda c0, c1: (valid_ranks[c0:c1], partial(
            _tile, q_mat[:ns], None if q32 is None else q32[:ns], q_mat[ns + c0 : ns + c1],
            None if q32 is None else q32[ns + c0 : ns + c1],
        )),
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
