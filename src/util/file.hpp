// Durable file I/O helpers.
//
// Everything the tools persist across a crash (detsim repro files, CSV
// tables, trace files) goes through write_file_atomic: the
// contents land in a sibling ".tmp" file, are flushed to disk (fsync), and
// only then renamed over the destination. POSIX rename is atomic within a
// filesystem, so a reader -- including this process after a restart --
// sees either the previous complete file or the new complete file, never
// a truncated mix.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace partree::util {

/// Writes `contents` to `path` atomically (tmp file + fsync + rename).
/// Returns false (leaving any previous `path` intact and removing the tmp
/// file) if any step fails -- unwritable directory, full disk, rename
/// across filesystems.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view contents);

/// Whole-file read; nullopt when the file cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace partree::util
