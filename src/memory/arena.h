/**
 * @file
 * Bump-pointer float arena for per-subnet numeric state.
 *
 * Every in-flight subnet owns one Arena holding its activations,
 * gradient cursors, weight stashes and deferred gradients. Allocation
 * is a pointer bump into chunked slabs, so the steady-state
 * forward/backward path performs zero heap allocations — the
 * per-activation std::vector churn this replaces was the dominant
 * non-numeric cost of the hot path.
 *
 * Chunks are heap slabs with stable addresses: growing the arena
 * never moves prior allocations, and moving the Arena itself moves
 * chunk ownership without invalidating outstanding TensorViews.
 * reset() rewinds the cursors but keeps the slabs, so a reused arena
 * reaches its high-water mark once and never allocates again.
 *
 * Fresh allocations are zero-filled — bump allocation must not make
 * numeric state depend on what previously occupied the bytes
 * (Definition 1 extends to allocator behavior).
 */

#ifndef NASPIPE_MEMORY_ARENA_H
#define NASPIPE_MEMORY_ARENA_H

#include <cstddef>
#include <memory>
#include <vector>

#include "tensor/tensor_view.h"

namespace naspipe {

/** Chunked bump allocator of float storage. */
class Arena
{
  public:
    /** @param chunkFloats slab granularity (floats per chunk). */
    explicit Arena(std::size_t chunkFloats = 16384);

    Arena(Arena &&) = default;
    Arena &operator=(Arena &&) = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p n zero-filled floats (n == 0 yields a non-null
     * distinct-from-everything sentinel of size 0). Requests larger
     * than the chunk granularity get a dedicated slab.
     */
    float *allocFloats(std::size_t n);

    /** Rank-1 view over a fresh zero-filled allocation. */
    TensorView allocVector(std::size_t n)
    {
        return TensorView(allocFloats(n), n);
    }

    /**
     * Rewind every cursor, keeping the slabs. All outstanding views
     * into this arena become dangling-by-contract.
     */
    void reset();

  private:
    struct Chunk {
        std::unique_ptr<float[]> data;
        std::size_t capacity = 0;
        std::size_t used = 0;
    };

    Chunk &chunkWithRoom(std::size_t n);

    std::vector<Chunk> _chunks;
    std::size_t _chunkFloats;
};

} // namespace naspipe

#endif // NASPIPE_MEMORY_ARENA_H
