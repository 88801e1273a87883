//===- support/Flags.h - Declarative command-line flag tables ---*- C++ -*-===//
///
/// \file
/// One row per flag and one strict parser for every table. A row names
/// the flag, its value placeholder (none for a switch), one help line, a
/// strict value parser, and optionally an environment variable that is
/// read before argv (argv wins). The usage text is generated from the
/// same rows, so it cannot drift from what the parser accepts.
///
/// An unknown flag, a missing value, a malformed or out-of-range value,
/// or a non-repeatable flag given twice prints the usage to stderr and
/// exits with ConfigErrorExit (2) through envConfigError, before the
/// caller does any work. `--help` prints the usage to stdout and exits 0.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SUPPORT_FLAGS_H
#define SPF_SUPPORT_FLAGS_H

#include "support/Env.h"

#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace spf {
namespace support {

/// A row's strict value parser: stores \p Value and returns "", or
/// returns why \p Value was rejected. A switch receives "on" when given
/// on the command line; its environment variable takes on|off.
using FlagSetter = std::function<std::string(const std::string &Value)>;

struct Flag {
  const char *Name;          ///< Full spelling, e.g. "--jobs".
  const char *Arg;           ///< Value placeholder ("N"); null = switch.
  const char *Help;          ///< The row's one usage line.
  FlagSetter Set;
  const char *Env = nullptr; ///< Variable applied before argv, if any.
  bool Repeatable = false;   ///< May be given more than once, in order.
  bool Hidden = false;       ///< Internal protocol: not in the usage.
};

using FlagTable = std::vector<Flag>;

/// Applies every row's environment variable (when set and non-empty),
/// then `--name V` / `--name=V` / `--switch` arguments of \p Argv in
/// order. \p Epilog is appended to the usage text.
void parseFlags(const FlagTable &Table, int Argc, char **Argv,
                const std::string &Epilog = "");

/// "usage: PROG [flags]" plus one line per non-hidden row and --help.
std::string flagUsage(const FlagTable &Table, const std::string &Prog);

FlagSetter setString(std::string &Dst);
/// on|off, with 1|0 and true|false as synonyms.
FlagSetter setBool(bool &Dst);
/// A finite number >= 0.
FlagSetter setDouble(double &Dst);

/// Integer in [\p Min, \p Max] (see parseU64) stored into \p Dst.
template <typename T>
FlagSetter setUInt(T &Dst, uint64_t Min = 0,
                   uint64_t Max = std::numeric_limits<T>::max()) {
  return [&Dst, Min, Max](const std::string &V) {
    uint64_t N = 0;
    std::string Why = parseU64(V, N, Min, Max);
    if (Why.empty())
      Dst = static_cast<T>(N);
    return Why;
  };
}

} // namespace support
} // namespace spf

#endif // SPF_SUPPORT_FLAGS_H
