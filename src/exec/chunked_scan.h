// Out-of-core group-by execution over an mmap-backed chunked table file.
//
// ExecuteGroupByMapped runs a group-by query over a MappedTable without
// ever materializing it, in one chunk-order pass run in waves (one chunk
// per wave at one thread, ~2x the fan-out otherwise). The file's zone maps
// classify each chunk first. Each wave then decodes, one chunk per
// worker, only the columns the query reads and evaluates the WHERE
// selection and COUNT_IF masks (provably-accepted chunks skip WHERE).
// Group ids come from the file's group directory for the grouping
// (MappedTable::FindGroupDirectory): if the table keeps one, the workers
// look up each surviving row's id in it, read-only, and a chunk the WHERE
// clause provably rejects is never decoded. Otherwise the scan builds it:
// rejected chunks decode their GROUP BY columns, every row is routed in
// chunk order, and a completed scan offers the directory to the table.
// Each chunk is accumulated, in chunk order, with one serial pass of the
// shared accumulation core (AccumulateSources). Decoded chunks flow
// through the process-wide LRU chunk cache (CVOPT_CHUNK_CACHE_BYTES), so
// peak memory is one decode wave's worth of the projected columns plus
// the cache budget, the directory and the accumulators, regardless of
// table size. The wave, and the directory with the accumulators, are each
// charged to the ambient QueryContext's budget only if it grants them; a
// refused wave shrinks to one chunk, and a refusal never fails the query.
// A key missing from a kept directory (the file changed under the
// mapping) fails the query with kInternal.
//
// Determinism contract: group ids are the directory's full-file
// first-seen ids, groups are emitted in id order (those with no surviving
// row omitted), and each group's values are added in ascending row order.
// The QueryResult (groups, order, labels, values) is therefore bitwise
// identical at every thread count and chunk geometry, with the directory
// kept or built, and equal to ExecuteExact on the materialized table when
// ExecuteExact runs on one resolved thread (at more, its masked
// accumulation reassociates float sums by chunk).
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
