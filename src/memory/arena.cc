#include "memory/arena.h"

#include <cstring>

#include "common/logging.h"

namespace naspipe {

Arena::Arena(std::size_t chunkFloats) : _chunkFloats(chunkFloats)
{
    NASPIPE_ASSERT(chunkFloats > 0, "arena chunk must be non-empty");
}

Arena::Chunk &
Arena::chunkWithRoom(std::size_t n)
{
    // First-fit over existing slabs keeps reset()/reuse allocation-
    // free once the high-water mark is reached.
    for (Chunk &chunk : _chunks) {
        if (chunk.capacity - chunk.used >= n)
            return chunk;
    }
    Chunk fresh;
    fresh.capacity = n > _chunkFloats ? n : _chunkFloats;
    fresh.data = std::make_unique<float[]>(fresh.capacity);
    _chunks.push_back(std::move(fresh));
    return _chunks.back();
}

float *
Arena::allocFloats(std::size_t n)
{
    Chunk &chunk = chunkWithRoom(n);
    float *out = chunk.data.get() + chunk.used;
    chunk.used += n;
    std::memset(out, 0, n * sizeof(float));
    return out;
}

void
Arena::reset()
{
    for (Chunk &chunk : _chunks)
        chunk.used = 0;
}

} // namespace naspipe
