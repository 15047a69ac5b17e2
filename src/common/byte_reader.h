/**
 * @file
 * Bounds-checked cursor over a byte view, the twin of ByteWriter:
 * checkpoint readers parse bytes where they lie, and a length field
 * larger than the view fails at once, before any allocation.
 */

#ifndef NASPIPE_COMMON_BYTE_READER_H
#define NASPIPE_COMMON_BYTE_READER_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace naspipe {

/**
 * Reads raw bytes and PODs (host byte order) off the front of
 * @c rest; a read past its end returns false.
 */
struct ByteReader {
    std::string_view rest;

    bool
    raw(void *dst, std::size_t n)
    {
        if (rest.size() < n)
            return false;
        if (n > 0)  // dst may be an empty vector's null data()
            std::memcpy(dst, rest.data(), n);
        rest.remove_prefix(n);
        return true;
    }

    template <typename T>
    bool
    pod(T &value)
    {
        return raw(&value, sizeof(T));
    }

    /** A u64 byte length, then that many bytes, as a sub-view. */
    bool
    section(std::string_view &out)
    {
        std::uint64_t n = 0;
        if (!pod(n) || rest.size() < n)
            return false;
        out = rest.substr(0, static_cast<std::size_t>(n));
        rest.remove_prefix(static_cast<std::size_t>(n));
        return true;
    }

    bool exhausted() const { return rest.empty(); }
};

} // namespace naspipe

#endif // NASPIPE_COMMON_BYTE_READER_H
