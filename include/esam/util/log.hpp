// The library's one log-sink idiom. Configs that log (nn::TrainConfig,
// serve::ServerConfig) carry a LogFn plus an opaque context pointer: a plain
// function pointer (not std::function) keeps them trivially copyable and
// clear of GCC 12's std::function-in-aggregate -Wmaybe-uninitialized false
// positive under -Werror.
#pragma once

#include <cstdio>
#include <string>

namespace esam::util {

using LogFn = void (*)(const std::string& line, void* ctx);

/// Routes one line to `fn(line, ctx)`, or to stderr when `fn` is null: the
/// library never writes to stdout (esam_lint rule no-stdout), so a CLI
/// embedding it keeps a clean report stream.
inline void emit_log(LogFn fn, void* ctx, const std::string& line) {
  if (fn != nullptr) {
    fn(line, ctx);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace esam::util
