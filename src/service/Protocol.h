//===- service/Protocol.h - s1lispd wire protocol ---------------*- C++ -*-===//
///
/// \file
/// The compile service's wire format: length-prefixed frames, each
/// carrying one message of ordered key/value string fields. A frame is a
/// big-endian u32 payload length followed by the payload; the payload is
/// a big-endian u32 field count, then per field a u32 key length, the key
/// bytes, a u32 value length, and the value bytes. Values are opaque
/// bytes (sources, listings, JSON) — nothing needs escaping, and the
/// format survives any content the compiler can produce.
///
/// Requests carry a "cmd" field ("compile", "ping", "stats", "shutdown");
/// see Server.h for the compile fields. The same framing runs over a unix
/// socket (the daemon) or stdin/stdout (`s1lispd --stdio`, for tests and
/// piping).
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SERVICE_PROTOCOL_H
#define S1LISP_SERVICE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace s1lisp {
namespace service {

/// Upper bound on one frame's payload; a peer announcing more is treated
/// as malformed (protects the daemon from a garbage length prefix).
constexpr uint32_t MaxFrameBytes = 256u << 20;

/// One request or response: ordered key/value fields. Duplicate keys are
/// allowed by the format; get() returns the first.
struct Message {
  std::vector<std::pair<std::string, std::string>> Fields;

  void set(std::string Key, std::string Value) {
    Fields.emplace_back(std::move(Key), std::move(Value));
  }
  const std::string *get(std::string_view Key) const {
    for (const auto &[K, V] : Fields)
      if (K == Key)
        return &V;
    return nullptr;
  }
  std::string getOr(std::string_view Key, std::string Default = "") const {
    const std::string *V = get(Key);
    return V ? *V : std::move(Default);
  }
  bool has(std::string_view Key) const { return get(Key) != nullptr; }
  bool flag(std::string_view Key) const {
    const std::string *V = get(Key);
    return V && !V->empty() && *V != "0";
  }
};

/// Parses \p S as a decimal u64: digits only, no sign or spaces. False on
/// empty input and on a value past UINT64_MAX. Numeric request fields and
/// the daemon's command line both go through it.
bool parseU64(std::string_view S, uint64_t &Out);

/// Serializes \p M into a frame payload (no length prefix).
std::string encodeMessage(const Message &M);

/// Parses a frame payload; false on truncated or oversized input.
bool decodeMessage(std::string_view Payload, Message &Out);

/// Frame I/O over a file descriptor. Both handle partial transfers and
/// EINTR. readFrame distinguishes a clean EOF at a frame boundary (Eof)
/// from a truncated or malformed stream (Error).
enum class ReadStatus { Ok, Eof, Error };
ReadStatus readFrame(int Fd, Message &Out, std::string *Err = nullptr);
bool writeFrame(int Fd, const Message &M, std::string *Err = nullptr);

} // namespace service
} // namespace s1lisp

#endif // S1LISP_SERVICE_PROTOCOL_H
