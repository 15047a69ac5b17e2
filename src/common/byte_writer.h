/**
 * @file
 * Cursor that serializes into a buffer sized in advance.
 *
 * Checkpoint writers compute their exact size first, allocate once
 * and fill the buffer in place, so the bytes are never copied through
 * a growing stream.
 */

#ifndef NASPIPE_COMMON_BYTE_WRITER_H
#define NASPIPE_COMMON_BYTE_WRITER_H

#include <cstddef>
#include <cstring>

namespace naspipe {

/** Copies raw bytes and PODs (host byte order) to @c at, advancing it. */
struct ByteWriter {
    char *at;

    void
    raw(const void *src, std::size_t n)
    {
        if (n == 0)
            return;  // src may be an empty vector's null data()
        std::memcpy(at, src, n);
        at += n;
    }

    template <typename T>
    void
    pod(const T &value)
    {
        raw(&value, sizeof(T));
    }
};

} // namespace naspipe

#endif // NASPIPE_COMMON_BYTE_WRITER_H
