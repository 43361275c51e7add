// Tuning constants shared by the buffer pool's frame-table sharding, the
// R-tree traversals' staging hints, and the harnesses that watch their
// behavior (bench/micro_storage.cc's pin-contention curve,
// tests/storage_race_test.cc's eviction churn).
//
// They live in one header so the regression watchpoints move together with
// the pool: a bench or race test sized against stale constants would keep
// measuring a single latch while the pool had ten.

#ifndef CONN_STORAGE_POOL_TUNING_H_
#define CONN_STORAGE_POOL_TUNING_H_

#include <cstddef>

namespace conn {
namespace storage {

/// One latch shard per this many frames (2Q policy only — exact-LRU always
/// runs a single global list so it reproduces the seed LruBuffer's eviction
/// order bit-for-bit).
inline constexpr size_t kFramesPerShard = 32;

/// Hard cap on the number of latch shards a pool will create.  With
/// kFramesPerShard frames per latch this caps latch sharding at a
/// 1024-frame pool, past which the id-interleaved mapping already spreads
/// contention thin.
inline constexpr size_t kMaxShards = 32;

/// The 2Q probationary FIFO (A1in) targets shard_capacity / this divisor
/// (minimum 1 frame).
inline constexpr size_t kA1inTargetDivisor = 4;

/// Most leaf pages a traversal stages per expanded level-1 node (the
/// nearest STR siblings) when BufferOptions::stage_hints is on.
inline constexpr size_t kHintDepth = 8;

}  // namespace storage
}  // namespace conn

#endif  // CONN_STORAGE_POOL_TUNING_H_
