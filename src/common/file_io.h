/**
 * @file
 * Whole-file reads and atomic whole-file writes, for the checkpoint
 * formats that parse from and serialize to one buffer.
 */

#ifndef NASPIPE_COMMON_FILE_IO_H
#define NASPIPE_COMMON_FILE_IO_H

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace naspipe {

/** Read the regular file @p path into @p out; false (logged) if not. */
inline bool
readFile(const std::string &path, std::string &out)
{
    std::error_code error;  // also set for a directory
    const auto size = std::filesystem::file_size(path, error);
    std::ifstream in(path, std::ios::binary);
    std::string bytes(error ? 0 : size, '\0');
    if (error || !in.read(bytes.data(),
                          static_cast<std::streamsize>(bytes.size()))) {
        warn("cannot read ", path);
        return false;
    }
    out = std::move(bytes);
    return true;
}

/**
 * Write @p bytes to "<path>.tmp", check that it closed cleanly (the
 * final flush fails on a full disk too), then rename it over
 * @p path. On failure the temp file is removed, @p path keeps its
 * old contents, and the reason is logged.
 */
inline bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (out.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot write ", path, " through ", tmp);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace naspipe

#endif // NASPIPE_COMMON_FILE_IO_H
