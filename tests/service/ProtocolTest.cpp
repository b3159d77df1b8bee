//===- tests/service/ProtocolTest.cpp -------------------------------------===//
//
// The wire format's contract: encode/decode round-trips any field content
// (binary bytes, empty values, duplicate keys, order preserved), malformed
// payloads are rejected rather than misparsed, frame I/O over a real
// descriptor distinguishes a clean EOF from a truncated stream, and the
// numeric-field parser rejects what is not a decimal u64.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "gtest/gtest.h"

#include <unistd.h>

using namespace s1lisp;
using namespace s1lisp::service;

namespace {

TEST(Protocol, RoundTripPreservesFieldsInOrder) {
  Message M;
  M.set("cmd", "compile");
  M.set("source", "(defun f (x) \"str with \\\"quotes\\\" and\nnewlines\")");
  M.set("binary", std::string("\x00\x1f\xff\x7f", 4));
  M.set("empty", "");
  M.set("cmd", "second-value-of-duplicate-key");

  Message Out;
  ASSERT_TRUE(decodeMessage(encodeMessage(M), Out));
  ASSERT_EQ(Out.Fields.size(), M.Fields.size());
  for (size_t I = 0; I < M.Fields.size(); ++I) {
    EXPECT_EQ(Out.Fields[I].first, M.Fields[I].first) << "field " << I;
    EXPECT_EQ(Out.Fields[I].second, M.Fields[I].second) << "field " << I;
  }
}

TEST(Protocol, AccessorSemantics) {
  Message M;
  M.set("cmd", "first");
  M.set("cmd", "second");
  M.set("on", "1");
  M.set("off", "0");
  M.set("blank", "");
  M.set("word", "yes");

  // get() returns the first of a duplicate key.
  ASSERT_NE(M.get("cmd"), nullptr);
  EXPECT_EQ(*M.get("cmd"), "first");
  EXPECT_EQ(M.get("missing"), nullptr);
  EXPECT_EQ(M.getOr("missing", "dflt"), "dflt");
  EXPECT_EQ(M.getOr("on"), "1");
  EXPECT_TRUE(M.has("blank"));
  EXPECT_FALSE(M.has("missing"));

  // flag(): present, non-empty, and not "0".
  EXPECT_TRUE(M.flag("on"));
  EXPECT_TRUE(M.flag("word"));
  EXPECT_FALSE(M.flag("off"));
  EXPECT_FALSE(M.flag("blank"));
  EXPECT_FALSE(M.flag("missing"));
}

TEST(Protocol, EmptyMessageRoundTrips) {
  Message M, Out;
  std::string Payload = encodeMessage(M);
  ASSERT_TRUE(decodeMessage(Payload, Out));
  EXPECT_TRUE(Out.Fields.empty());
}

TEST(Protocol, RejectsTruncatedPayloads) {
  Message M;
  M.set("key", "value");
  M.set("another", "field");
  std::string Full = encodeMessage(M);

  // Every strict prefix is either short of the announced field count or
  // cuts a length/byte run; none may decode.
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    Message Out;
    EXPECT_FALSE(decodeMessage(std::string_view(Full.data(), Len), Out))
        << "prefix of length " << Len << " decoded";
  }
}

TEST(Protocol, RejectsTrailingGarbage) {
  Message M;
  M.set("key", "value");
  std::string Payload = encodeMessage(M) + "x";
  Message Out;
  EXPECT_FALSE(decodeMessage(Payload, Out));
}

TEST(Protocol, RejectsAbsurdFieldCount) {
  // A count claiming ~4 billion fields in a 4-byte payload.
  std::string Payload = "\xff\xff\xff\xff";
  Message Out;
  EXPECT_FALSE(decodeMessage(Payload, Out));
}

TEST(Protocol, FrameIoOverPipe) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);

  // Big enough for several read()s, small enough to fit the pipe buffer
  // (writeFrame would otherwise block with no reader draining it).
  Message Req;
  Req.set("cmd", "ping");
  Req.set("payload", std::string(30000, 'z'));
  ASSERT_TRUE(writeFrame(Fds[1], Req));

  Message Got;
  ASSERT_EQ(readFrame(Fds[0], Got), ReadStatus::Ok);
  EXPECT_EQ(Got.getOr("cmd"), "ping");
  EXPECT_EQ(Got.getOr("payload").size(), 30000u);

  // Peer hangs up at a frame boundary: clean EOF, not an error.
  close(Fds[1]);
  EXPECT_EQ(readFrame(Fds[0], Got), ReadStatus::Eof);
  close(Fds[0]);
}

TEST(Protocol, TruncatedFrameIsAnError) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);

  // A length prefix promising 100 bytes, then only 3 before hangup.
  std::string Junk("\x00\x00\x00\x64" "abc", 7);
  ASSERT_EQ(write(Fds[1], Junk.data(), Junk.size()),
            static_cast<ssize_t>(Junk.size()));
  close(Fds[1]);

  Message Got;
  std::string Err;
  EXPECT_EQ(readFrame(Fds[0], Got, &Err), ReadStatus::Error);
  EXPECT_FALSE(Err.empty());
  close(Fds[0]);
}

TEST(Protocol, OversizedFrameLengthIsAnError) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);

  // Length prefix above MaxFrameBytes: rejected before any allocation.
  std::string Junk("\xff\xff\xff\xff", 4);
  ASSERT_EQ(write(Fds[1], Junk.data(), Junk.size()),
            static_cast<ssize_t>(Junk.size()));
  close(Fds[1]);

  Message Got;
  EXPECT_EQ(readFrame(Fds[0], Got), ReadStatus::Error);
  close(Fds[0]);
}

TEST(Protocol, ParseU64AcceptsDecimalsUpToTheMaximum) {
  uint64_t V = 7;
  EXPECT_TRUE(parseU64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64("00042", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseU64("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);

  // Out is left alone on every rejection, overflow included.
  V = 7;
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "abc", "12a", "1e6",
                          "0x10", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parseU64(Bad, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 7u) << "'" << Bad << "'";
  }
}

} // namespace
