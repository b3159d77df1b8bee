//===- tests/service/ServiceEndToEndTest.cpp ------------------------------===//
//
// The whole service stack over a real unix socket: fork/exec the s1lispd
// binary, speak the protocol through service::Client, drive the s1lispc
// --server passthrough against the same daemon, and shut it down cleanly.
// Paths to the tools come from the build (S1LISPD_PATH / S1LISPC_PATH).
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Protocol.h"

#include "harness/RenamedTwin.h"

#include "gtest/gtest.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

using namespace s1lisp;
using namespace s1lisp::service;

namespace {

/// Runs one daemon for the whole suite: exec'd in SetUp, shut down over
/// the protocol in TearDown (SIGKILL only as a last resort).
class ServiceEndToEnd : public ::testing::Test {
protected:
  void SetUp() override {
    Socket = "/tmp/s1lispd-test-" + std::to_string(getpid()) + ".sock";
    Daemon = fork();
    ASSERT_GE(Daemon, 0) << "fork failed";
    if (Daemon == 0) {
      std::string SocketArg = "--socket=" + Socket;
      execl(S1LISPD_PATH, "s1lispd", SocketArg.c_str(), "--workers=2",
            static_cast<char *>(nullptr));
      _exit(127); // exec failed
    }
    // The daemon binds asynchronously; poll until the socket accepts.
    for (int Try = 0; Try < 250 && !Conn.connected(); ++Try) {
      if (Conn.connectUnix(Socket))
        break;
      usleep(20000);
    }
    ASSERT_TRUE(Conn.connected()) << "daemon never came up on " << Socket;
  }

  void TearDown() override {
    if (Daemon <= 0)
      return;
    Message Req, Resp;
    Req.set("cmd", "shutdown");
    Client Closer;
    if (Conn.connected())
      Conn.roundTrip(Req, Resp);
    else if (Closer.connectUnix(Socket))
      Closer.roundTrip(Req, Resp);

    int Status = 0;
    for (int Try = 0; Try < 250; ++Try) {
      if (waitpid(Daemon, &Status, WNOHANG) == Daemon) {
        EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
            << "daemon exit status " << Status;
        unlink(Socket.c_str());
        return;
      }
      usleep(20000);
    }
    kill(Daemon, SIGKILL);
    waitpid(Daemon, &Status, 0);
    unlink(Socket.c_str());
    FAIL() << "daemon ignored the shutdown request";
  }

  std::string Socket;
  pid_t Daemon = -1;
  Client Conn;
};

TEST_F(ServiceEndToEnd, PingCompileRunOverTheSocket) {
  Message Req, Resp;
  Req.set("cmd", "ping");
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  EXPECT_EQ(Resp.getOr("ok"), "1");

  Message Compile;
  Compile.set("cmd", "compile");
  Compile.set("source", "(defun exptl (b n)\n"
                        "  (if (zerop n) 1 (* b (exptl b (1- n)))))\n"
                        "(defun fut () (exptl 2 10))\n");
  Compile.set("entry", "fut");
  Compile.set("listing", "1");
  ASSERT_TRUE(Conn.roundTrip(Compile, Resp));
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("value"), "1024");
  EXPECT_FALSE(Resp.getOr("listing").empty());

  // Same request on a second connection: a pure cache hit, same answer.
  Client Second;
  ASSERT_TRUE(Second.connectUnix(Socket));
  Message Warm;
  ASSERT_TRUE(Second.roundTrip(Compile, Warm));
  EXPECT_EQ(Warm.getOr("memo-hits"), "2");
  EXPECT_EQ(Warm.getOr("memo-misses"), "0");
  EXPECT_EQ(Warm.getOr("value"), Resp.getOr("value"));
  EXPECT_EQ(Warm.getOr("listing"), Resp.getOr("listing"));

  Message Stats;
  Stats.set("cmd", "stats");
  ASSERT_TRUE(Conn.roundTrip(Stats, Resp));
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("cache-entries"), "2");
  EXPECT_EQ(Resp.getOr("cache-hits"), "2");
}

TEST_F(ServiceEndToEnd, CompileErrorsTravelBack) {
  Message Req, Resp;
  Req.set("cmd", "compile");
  Req.set("source", "(defun oops (x");
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  EXPECT_EQ(Resp.getOr("ok"), "0");
  EXPECT_FALSE(Resp.getOr("error").empty());

  // The connection survives a failed request.
  Message Ping;
  Ping.set("cmd", "ping");
  ASSERT_TRUE(Conn.roundTrip(Ping, Resp));
  EXPECT_EQ(Resp.getOr("ok"), "1");
}

/// Runs s1lispc on \p Input (examples/exptl.lisp by default) with \p Args
/// and returns its stdout and stderr together; fails the test on a
/// nonzero exit.
std::string runS1lispc(const std::string &Args,
                       const std::string &Input = std::string(
                           S1LISP_EXAMPLES_DIR) + "/exptl.lisp") {
  std::string Out = "/tmp/s1lispc-server-test-" + std::to_string(getpid());
  std::string Cmd = std::string(S1LISPC_PATH) + " " + Input + " " + Args +
                    " > " + Out + " 2>&1";
  int Rc = std::system(Cmd.c_str());
  EXPECT_TRUE(WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0) << "rc=" << Rc;

  std::string Text;
  if (FILE *F = fopen(Out.c_str(), "r")) {
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
      Text.append(Buf, N);
    fclose(F);
  }
  unlink(Out.c_str());
  return Text;
}

TEST_F(ServiceEndToEnd, S1lispcServerPassthrough) {
  std::string Text = runS1lispc("--run --server=" + Socket);
  EXPECT_NE(Text.find("=> 1024"), std::string::npos) << Text;
}

// The daemon answers a module's renamed twin as a local compile of the
// twin does, byte for byte, though it has compiled the module before.
TEST_F(ServiceEndToEnd, S1lispcRenamedTwinMatchesTheLocalCompile) {
  auto Write = [](const std::string &Path, const char *Text) {
    FILE *F = fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr) << Path;
    fputs(Text, F);
    fclose(F);
  };
  const std::string Stem = "/tmp/s1lispc-twin-" + std::to_string(getpid());
  const std::string Module = Stem + "-module.lisp";
  const std::string Twin = Stem + "-twin.lisp";
  Write(Module, twin::Module);
  Write(Twin, twin::Renamed);
  const std::string Args = "--run=fut --listing --transcript";
  const std::string Local = runS1lispc(Args, Twin);
  EXPECT_NE(Local.find("=> 42"), std::string::npos) << Local;
  runS1lispc(Args + " --server=" + Socket, Module);
  EXPECT_EQ(runS1lispc(Args + " --server=" + Socket, Twin), Local);
  unlink(Module.c_str());
  unlink(Twin.c_str());
}

TEST_F(ServiceEndToEnd, S1lispcStatsMatchTheLocalCompile) {
  // Both renderings of the counters, local and through the daemon, print
  // the same bytes.
  for (const char *Mode : {"--stats", "--stats=json"}) {
    std::string Local = runS1lispc(std::string("--run ") + Mode);
    EXPECT_NE(Local.find("codegen.instructions"), std::string::npos) << Local;
    EXPECT_EQ(runS1lispc(std::string("--run ") + Mode + " --server=" + Socket),
              Local)
        << Mode;
  }
}

} // namespace
