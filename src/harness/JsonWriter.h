//===- harness/JsonWriter.h - Minimal JSON emission -------------*- C++ -*-===//
///
/// \file
/// A tiny streaming JSON writer for the harness's machine-readable
/// reports. Emits objects/arrays in insertion order with deterministic
/// number formatting, so reports from identical runs are byte-identical.
/// Not a general-purpose serializer: just what `bench/sweep` needs.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_HARNESS_JSONWRITER_H
#define SPF_HARNESS_JSONWRITER_H

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace spf {
namespace harness {

/// Streaming JSON writer. Usage:
/// \code
///   JsonWriter J(OS);
///   J.beginObject();
///   J.key("jobs").value(uint64_t(8));
///   J.key("cells").beginArray();
///   ...
///   J.endArray();
///   J.endObject();
/// \endcode
class JsonWriter {
public:
  explicit JsonWriter(std::ostream &OS) : OS(OS) {}

  JsonWriter &beginObject() {
    separate();
    OS << '{';
    Stack.push_back(true);
    return *this;
  }

  JsonWriter &endObject() {
    Stack.pop_back();
    OS << '}';
    return *this;
  }

  JsonWriter &beginArray() {
    separate();
    OS << '[';
    Stack.push_back(true);
    return *this;
  }

  JsonWriter &endArray() {
    Stack.pop_back();
    OS << ']';
    return *this;
  }

  JsonWriter &key(const std::string &K) {
    separate();
    writeString(K);
    OS << ':';
    AfterKey = true;
    return *this;
  }

  JsonWriter &value(const std::string &V) {
    separate();
    writeString(V);
    return *this;
  }

  JsonWriter &value(const char *V) { return value(std::string(V)); }

  JsonWriter &value(uint64_t V) {
    separate();
    OS << V;
    return *this;
  }

  JsonWriter &value(int64_t V) {
    separate();
    OS << V;
    return *this;
  }

  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }

  JsonWriter &null() {
    separate();
    OS << "null";
    return *this;
  }

  JsonWriter &value(bool V) {
    separate();
    OS << (V ? "true" : "false");
    return *this;
  }

  JsonWriter &value(double V) {
    separate();
    // Fixed round-trippable formatting, independent of stream state.
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    OS << Buf;
    return *this;
  }

private:
  /// Emits the comma between siblings; a value directly after a key is
  /// never preceded by one.
  void separate() {
    if (AfterKey) {
      AfterKey = false;
      return;
    }
    if (!Stack.empty()) {
      if (!Stack.back())
        OS << ',';
      Stack.back() = false;
    }
  }

  void writeString(const std::string &S) {
    OS << '"';
    for (char C : S) {
      switch (C) {
      case '"':
        OS << "\\\"";
        break;
      case '\\':
        OS << "\\\\";
        break;
      case '\n':
        OS << "\\n";
        break;
      case '\t':
        OS << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          OS << Buf;
        } else {
          OS << C;
        }
      }
    }
    OS << '"';
  }

  std::ostream &OS;
  /// One entry per open container: true while it is still empty.
  std::vector<bool> Stack;
  bool AfterKey = false;
};

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_JSONWRITER_H
