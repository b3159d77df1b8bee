//===- service/Protocol.cpp -----------------------------------------------===//

#include "service/Protocol.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <unistd.h>

using namespace s1lisp;
using namespace s1lisp::service;

namespace {

void putU32(std::string &Out, uint32_t V) {
  Out.push_back(static_cast<char>(V >> 24));
  Out.push_back(static_cast<char>(V >> 16));
  Out.push_back(static_cast<char>(V >> 8));
  Out.push_back(static_cast<char>(V));
}

bool getU32(std::string_view In, size_t &Pos, uint32_t &V) {
  if (In.size() - Pos < 4)
    return false;
  V = (static_cast<uint32_t>(static_cast<uint8_t>(In[Pos])) << 24) |
      (static_cast<uint32_t>(static_cast<uint8_t>(In[Pos + 1])) << 16) |
      (static_cast<uint32_t>(static_cast<uint8_t>(In[Pos + 2])) << 8) |
      static_cast<uint32_t>(static_cast<uint8_t>(In[Pos + 3]));
  Pos += 4;
  return true;
}

bool getBytes(std::string_view In, size_t &Pos, std::string &Out) {
  uint32_t Len = 0;
  if (!getU32(In, Pos, Len) || In.size() - Pos < Len)
    return false;
  Out.assign(In.data() + Pos, Len);
  Pos += Len;
  return true;
}

bool readAll(int Fd, char *Buf, size_t Len) {
  while (Len) {
    ssize_t N = ::read(Fd, Buf, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false;
    Buf += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

void setErr(std::string *Err, const char *Msg) {
  if (Err)
    *Err = Msg;
}

} // namespace

bool service::parseU64(std::string_view S, uint64_t &Out) {
  uint64_t V = 0;
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = V;
  return true;
}

std::string service::encodeMessage(const Message &M) {
  std::string Out;
  putU32(Out, static_cast<uint32_t>(M.Fields.size()));
  for (const auto &[K, V] : M.Fields) {
    putU32(Out, static_cast<uint32_t>(K.size()));
    Out += K;
    putU32(Out, static_cast<uint32_t>(V.size()));
    Out += V;
  }
  return Out;
}

bool service::decodeMessage(std::string_view Payload, Message &Out) {
  Out.Fields.clear();
  size_t Pos = 0;
  uint32_t Count = 0;
  if (!getU32(Payload, Pos, Count))
    return false;
  // Each field needs at least its two length words.
  if (Count > Payload.size() / 8 + 1)
    return false;
  Out.Fields.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    std::string K, V;
    if (!getBytes(Payload, Pos, K) || !getBytes(Payload, Pos, V))
      return false;
    Out.Fields.emplace_back(std::move(K), std::move(V));
  }
  return Pos == Payload.size();
}

ReadStatus service::readFrame(int Fd, Message &Out, std::string *Err) {
  char Hdr[4];
  // EOF before the first header byte is a clean end of stream; EOF after
  // it is a truncation.
  ssize_t N;
  do
    N = ::read(Fd, Hdr, 1);
  while (N < 0 && errno == EINTR);
  if (N < 0) {
    setErr(Err, "read failed");
    return ReadStatus::Error;
  }
  if (N == 0)
    return ReadStatus::Eof;
  if (!readAll(Fd, Hdr + 1, 3)) {
    setErr(Err, "truncated frame header");
    return ReadStatus::Error;
  }
  uint32_t Len = (static_cast<uint32_t>(static_cast<uint8_t>(Hdr[0])) << 24) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Hdr[1])) << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Hdr[2])) << 8) |
                 static_cast<uint32_t>(static_cast<uint8_t>(Hdr[3]));
  if (Len > MaxFrameBytes) {
    setErr(Err, "frame exceeds MaxFrameBytes");
    return ReadStatus::Error;
  }
  std::string Payload(Len, '\0');
  if (Len && !readAll(Fd, Payload.data(), Len)) {
    setErr(Err, "truncated frame payload");
    return ReadStatus::Error;
  }
  if (!decodeMessage(Payload, Out)) {
    setErr(Err, "malformed frame payload");
    return ReadStatus::Error;
  }
  return ReadStatus::Ok;
}

bool service::writeFrame(int Fd, const Message &M, std::string *Err) {
  std::string Payload = encodeMessage(M);
  if (Payload.size() > MaxFrameBytes) {
    setErr(Err, "frame exceeds MaxFrameBytes");
    return false;
  }
  std::string Out;
  Out.reserve(Payload.size() + 4);
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  Out += Payload;
  const char *Buf = Out.data();
  size_t Len = Out.size();
  while (Len) {
    ssize_t N = ::write(Fd, Buf, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      setErr(Err, "write failed");
      return false;
    }
    Buf += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}
