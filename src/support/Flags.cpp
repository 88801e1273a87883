//===- support/Flags.cpp --------------------------------------------------===//

#include "support/Flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace spf;
using namespace spf::support;

std::string support::flagUsage(const FlagTable &Table,
                               const std::string &Prog) {
  std::string Out = "usage: " + Prog + " [flags]\n";
  auto Line = [&Out](std::string Spelling, const std::string &Help) {
    Spelling.resize(std::max<size_t>(Spelling.size() + 1, 26), ' ');
    Out += "  " + Spelling + Help + "\n";
  };
  for (const Flag &F : Table) {
    if (F.Hidden)
      continue;
    std::string Help = F.Help;
    if (F.Env)
      Help += std::string(" (or ") + F.Env + ")";
    if (F.Repeatable)
      Help += " [repeatable]";
    Line(std::string(F.Name) + (F.Arg ? std::string(" ") + F.Arg : ""),
         Help);
  }
  Line("--help", "print this text and exit");
  return Out;
}

void support::parseFlags(const FlagTable &Table, int Argc, char **Argv,
                         const std::string &Epilog) {
  std::string Prog = Argc > 0 ? Argv[0] : "spf";
  Prog = Prog.substr(Prog.find_last_of('/') + 1);
  auto Fail = [&](const char *What, const std::string &Value,
                  const std::string &Why) {
    std::fputs((flagUsage(Table, Prog) + Epilog).c_str(), stderr);
    envConfigError(What, Value.c_str(), Why);
  };
  auto Apply = [&](const Flag &F, const char *What, const std::string &V) {
    std::string Why = F.Set(V);
    if (!Why.empty())
      Fail(What, V, Why);
  };

  for (const Flag &F : Table)
    if (const char *E = F.Env ? std::getenv(F.Env) : nullptr; E && *E)
      Apply(F, F.Env, E);

  std::vector<bool> Seen(Table.size());
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (A == "--help") {
      std::fputs((flagUsage(Table, Prog) + Epilog).c_str(), stdout);
      std::exit(0);
    }
    const size_t Eq = A.find('=');
    const std::string Name = A.substr(0, Eq);
    size_t Row = 0;
    while (Row != Table.size() && Name != Table[Row].Name)
      ++Row;
    if (Row == Table.size())
      Fail("argument", A, "unknown flag (see --help)");
    const Flag &F = Table[Row];
    if (Seen[Row] && !F.Repeatable)
      Fail(F.Name, "", "given more than once");
    Seen[Row] = true;
    if (!F.Arg) {
      if (Eq != std::string::npos)
        Fail(F.Name, A.substr(Eq + 1), "takes no value");
      Apply(F, F.Name, "on");
    } else if (Eq != std::string::npos) {
      Apply(F, F.Name, A.substr(Eq + 1));
    } else if (I + 1 < Argc) {
      Apply(F, F.Name, Argv[++I]);
    } else {
      Fail(F.Name, "", std::string("missing value ") + F.Arg);
    }
  }
}

FlagSetter support::setString(std::string &Dst) {
  return [&Dst](const std::string &V) {
    Dst = V;
    return std::string();
  };
}

FlagSetter support::setBool(bool &Dst) {
  return [&Dst](const std::string &V) -> std::string {
    if (V == "on" || V == "1" || V == "true")
      Dst = true;
    else if (V == "off" || V == "0" || V == "false")
      Dst = false;
    else
      return "expected on|off";
    return "";
  };
}

FlagSetter support::setDouble(double &Dst) {
  return [&Dst](const std::string &V) { return parseDouble(V, Dst); };
}
