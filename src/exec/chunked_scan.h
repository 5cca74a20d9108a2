// Out-of-core group-by execution over an mmap-backed chunked table file.
//
// ExecuteGroupByMapped runs a group-by query over a MappedTable without
// ever materializing it, in one chunk-order pass run in waves (one chunk
// per wave at one thread, ~2x the fan-out otherwise). The file's zone maps
// classify each chunk first. Each wave then decodes only the columns the
// query reads — GROUP BY, aggregated columns, and the WHERE and COUNT_IF
// leaves; just the GROUP BY columns of a chunk the WHERE clause provably
// rejects — and evaluates the WHERE / COUNT_IF masks, one chunk per
// worker (provably-accepted chunks skip WHERE evaluation). It routes every
// row, in chunk order, to its dense first-occurrence group id through one
// StreamGroupRouter, grows the accumulators to the new group count, and
// accumulates with workers owning disjoint contiguous gid ranges. Decoded
// chunks flow through the process-wide LRU chunk cache
// (CVOPT_CHUNK_CACHE_BYTES), so peak memory is one decode wave's worth of
// the projected columns plus the cache budget and the accumulators,
// regardless of table size. The wave and the accumulators are each charged
// to the ambient QueryContext's budget only if it grants them; a refused
// wave shrinks to one chunk, and a refusal never fails the query.
//
// Determinism contract: group ids are first-seen in ascending row order,
// and each group's values are added in ascending row order by exactly one
// worker (gid-range ownership, chunks walked in order within and across
// waves). The QueryResult (groups, order, labels, values) is therefore
// bitwise identical at every thread count and chunk geometry, and equal to
// ExecuteExact on the materialized table when ExecuteExact runs on one
// resolved thread (at more, its masked accumulation reassociates float
// sums by chunk).
#ifndef CVOPT_EXEC_CHUNKED_SCAN_H_
#define CVOPT_EXEC_CHUNKED_SCAN_H_

#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/table/mapped_table.h"
#include "src/util/status.h"

namespace cvopt {

/// Runs `query` exactly over the mapped table. Supports the full aggregate
/// set of ExecuteExact; group-by columns must be int64 or string,
/// aggregated columns numeric.
Result<QueryResult> ExecuteGroupByMapped(const MappedTable& mapped,
                                         const QuerySpec& query);

}  // namespace cvopt

#endif  // CVOPT_EXEC_CHUNKED_SCAN_H_
