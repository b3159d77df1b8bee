//===- tests/vm/FirstEntryTest.cpp - Decode on first entry -----------------===//
//
// The threaded loop decodes a function the first time control enters it:
// the function's decode stub un-retires itself, decodes, and restarts at
// pc 0. Every case here enters functions that are not yet decoded, and
// holds each engine to the contract of EngineHarness.h at every fuel
// budget from zero to a complete run, so a trap exactly at a callee's
// first instruction, entries through closures and after a throw, and the
// native tier's hand-offs to the threaded loop are all covered.
//
//===----------------------------------------------------------------------===//

#include "EngineHarness.h"

#include "stats/Stats.h"
#include "vm/Jit.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace s1lisp;
using namespace s1lisp::enginetest;

namespace {

struct Compiled {
  ir::Module M;
  s1::Program P;
};

std::unique_ptr<Compiled> compile(const std::string &Source) {
  auto C = std::make_unique<Compiled>();
  driver::CompileOutcome Out = driver::compileSource(C->M, Source);
  EXPECT_TRUE(Out.Ok) << Out.Error;
  C->P = std::move(Out.Program);
  return C;
}

/// Runs the call on every engine at each fuel budget from 0 to one past a
/// complete run; returns legacy's trap texts, one per budget that traps.
std::vector<std::string> sweepFuel(Compiled &C, const std::string &Entry,
                                   const std::vector<sexpr::Value> &Args) {
  EngineRun Full = runOn(C.P, C.M.Syms, C.M.DataHeap, Entry, Args,
                         vm::Engine::Legacy);
  EXPECT_TRUE(Full.Ok) << Full.Text;
  std::vector<std::string> Traps;
  for (uint64_t Fuel = 0; Fuel <= Full.Stats.Instructions + 1; ++Fuel) {
    RunConfig RC;
    RC.Fuel = Fuel;
    EngineRun Want =
        expectEnginesAgree(C.P, C.M.Syms, C.M.DataHeap, Entry, Args, RC);
    EXPECT_EQ(Want.Ok, Fuel >= Full.Stats.Instructions) << describe(RC);
    if (!Want.Ok)
      Traps.push_back(Want.Text);
  }
  return Traps;
}

bool contains(const std::vector<std::string> &Texts, const std::string &S) {
  return std::find(Texts.begin(), Texts.end(), S) != Texts.end();
}

/// The functions decoded while \p T was the thread's tally.
uint64_t decodes(const stats::LocalTally &T) {
  for (const stats::TallyDelta &D : T.deltas())
    if (D.Name == "vm.decode.functions")
      return D.Add;
  return 0;
}

TEST(FirstEntry, DecodesOnlyTheFunctionsARunEnters) {
  auto C = compile("(defun unused (x) (* x x))\n"
                   "(defun callee (x) (+ x 1))\n"
                   "(defun main () (callee 41))\n");
  auto Decoded = vm::predecode(C->P);
  for (int F = 0; F < static_cast<int>(Decoded->size()); ++F)
    EXPECT_FALSE(Decoded->isDecoded(F)) << C->P.Functions[F].Name;

  vm::Machine VM(C->P, C->M.Syms, C->M.DataHeap);
  VM.setDecodedProgram(Decoded);
  stats::LocalTally T;
  vm::Machine::RunResult R = [&] {
    stats::TallyScope Scope(T);
    return VM.call("main", {});
  }();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ResultWord, s1::makeFixnum(42));
  EXPECT_FALSE(Decoded->isDecoded(C->P.indexOf("unused")));
  EXPECT_TRUE(Decoded->isDecoded(C->P.indexOf("callee")));
  EXPECT_TRUE(Decoded->isDecoded(C->P.indexOf("main")));
  EXPECT_EQ(decodes(T), 2u);

  // A second call, and a second Machine sharing the decode, decode nothing.
  vm::Machine Other(C->P, C->M.Syms, C->M.DataHeap);
  Other.setDecodedProgram(Decoded);
  stats::LocalTally Again;
  {
    stats::TallyScope Scope(Again);
    ASSERT_TRUE(VM.call("main", {}).Ok);
    ASSERT_TRUE(Other.call("main", {}).Ok);
  }
  EXPECT_EQ(decodes(Again), 0u);
}

TEST(FirstEntry, NativeTierDecodesEveryFunctionItCompiles) {
  if (!vm::jitAvailable())
    GTEST_SKIP() << "no native tier on this host";
  auto C = compile("(defun unused (x) (* x x))\n"
                   "(defun main () 7)\n");
  auto Decoded = vm::predecode(C->P);
  vm::Machine VM(C->P, C->M.Syms, C->M.DataHeap);
  VM.setDecodedProgram(Decoded);
  VM.setEngine(vm::Engine::Native);
  ASSERT_TRUE(VM.call("main", {}).Ok);
  for (int F = 0; F < static_cast<int>(Decoded->size()); ++F)
    EXPECT_TRUE(Decoded->isDecoded(F)) << C->P.Functions[F].Name;
}

// (a) The budget that ends exactly at the callee's first instruction traps
// at the decode stub's boundary: the stub must un-retire itself so the
// trap, its pc and the counters are the decoded function's.
TEST(FirstEntry, FuelRunsOutAtTheCalleesFirstInstruction) {
  auto C = compile("(defun callee (x) (+ x 1))\n"
                   "(defun main () (callee 41))\n");
  std::vector<std::string> Traps = sweepFuel(*C, "main", {});
  EXPECT_TRUE(contains(Traps, "instruction fuel exhausted [in callee at pc 0]"));
}

// (b) Closures are entered through CALLPTR and TAILCALLPTR.
TEST(FirstEntry, ClosuresEnteredThroughCallPtrAndTailCallPtr) {
  auto C = compile("(defun apply-tail (f x) (funcall f x))\n"
                   "(defun apply-plus (f x) (+ 1 (funcall f x)))\n"
                   "(defun main (k)\n"
                   "  (+ (apply-tail (lambda (y) (* y k)) 3)\n"
                   "     (apply-plus (lambda (y) (+ y k)) 4)))\n");
  unsigned CallPtrs = 0, TailCallPtrs = 0;
  for (const s1::AsmFunction &F : C->P.Functions) {
    CallPtrs += F.countOpcode(s1::Opcode::CALLPTR);
    TailCallPtrs += F.countOpcode(s1::Opcode::TAILCALLPTR);
  }
  ASSERT_GT(CallPtrs, 0u);
  ASSERT_GT(TailCallPtrs, 0u);
  std::vector<std::string> Traps =
      sweepFuel(*C, "main", {sexpr::Value::fixnum(5)});
  EXPECT_EQ(expectEnginesAgree(C->P, C->M.Syms, C->M.DataHeap, "main",
                               {sexpr::Value::fixnum(5)})
                .Text,
            "25");
  EXPECT_FALSE(Traps.empty());
}

// (c) A throw lands in another function's handler, which then calls a
// function nothing has entered yet.
TEST(FirstEntry, ThrowCaughtInAnotherFunction) {
  auto C = compile("(defun thrower (x) (throw 'tag (* x 2)))\n"
                   "(defun after (x) (- x 3))\n"
                   "(defun catching (x) (after (catch 'tag (thrower x) 99)))\n"
                   "(defun main () (+ 1 (catching 20)))\n");
  EXPECT_EQ(expectEnginesAgree(C->P, C->M.Syms, C->M.DataHeap, "main", {})
                .Text,
            "38");
  std::vector<std::string> Traps = sweepFuel(*C, "main", {});
  EXPECT_TRUE(contains(Traps, "instruction fuel exhausted [in after at pc 0]"));
  EXPECT_TRUE(
      contains(Traps, "instruction fuel exhausted [in thrower at pc 0]"));
}

// (d) A block that does not fit in the remaining fuel hands off from the
// native tier to the threaded loop, which continues into callees; the
// sweep puts a hand-off at every block of the run. compileJit decodes
// every function before native code runs, so the continuation meets no
// stub, while the threaded engine's own runs enter each callee cold.
TEST(FirstEntry, ThreadedLoopContinuesAfterANativeHandOff) {
  auto C = compile("(defun leaf (x) (* x 3))\n"
                   "(defun mid (x) (+ (leaf x) (leaf (+ x 1))))\n"
                   "(defun main (n)\n"
                   "  (let ((s 0))\n"
                   "    (dotimes (i n) (setq s (+ s (mid i))))\n"
                   "    s))\n");
  std::vector<std::string> Traps =
      sweepFuel(*C, "main", {sexpr::Value::fixnum(4)});
  EXPECT_TRUE(contains(Traps, "instruction fuel exhausted [in leaf at pc 0]"));
  EXPECT_TRUE(contains(Traps, "instruction fuel exhausted [in mid at pc 0]"));
}

// Machines on several threads share one cold DecodedProgram, so their
// first entries race to decode the same functions; the native ones decode
// every function while they compile. Each function is decoded once, and
// every run returns what a solo run does.
TEST(FirstEntry, ParallelMachinesShareOneColdProgram) {
  auto C = compile("(defun unused (x) (* x x))\n"
                   "(defun f1 (x) (+ x 1))\n"
                   "(defun f2 (x) (* (f1 x) 2))\n"
                   "(defun f3 (x) (- (f2 x) (f1 x)))\n"
                   "(defun f4 (x) (if (< x 1) 0 (+ (f3 x) (f4 (- x 1)))))\n"
                   "(defun main (n) (f4 n))\n");
  const std::vector<sexpr::Value> Args = {sexpr::Value::fixnum(30)};
  EngineRun Want =
      runOn(C->P, C->M.Syms, C->M.DataHeap, "main", Args, vm::Engine::Legacy);
  ASSERT_TRUE(Want.Ok) << Want.Text;

  constexpr int Threads = 4, Rounds = 8;
  for (int Round = 0; Round < Rounds; ++Round) {
    auto Decoded = vm::predecode(C->P);
    std::atomic<int> Bad{0};
    std::atomic<uint64_t> Decodes{0};
    std::vector<std::thread> Ts;
    for (int T = 0; T < Threads; ++T)
      Ts.emplace_back([&, T] {
        stats::LocalTally Tally;
        {
          stats::TallyScope Scope(Tally);
          vm::Machine VM(C->P, C->M.Syms, C->M.DataHeap);
          VM.setDecodedProgram(Decoded);
          VM.setEngine(T == 0 && vm::jitAvailable() ? vm::Engine::Native
                                                    : vm::Engine::Threaded);
          vm::Machine::RunResult R = VM.call("main", Args);
          if (!R.Ok || R.ResultWord != Want.ResultWord ||
              !(VM.stats() == Want.Stats))
            ++Bad;
        }
        Decodes += decodes(Tally);
      });
    for (std::thread &T : Ts)
      T.join();
    EXPECT_EQ(Bad.load(), 0) << "round " << Round;
    // Threaded runs enter all but `unused`; the native tier decodes it too.
    EXPECT_EQ(Decodes.load(), C->P.Functions.size() - !vm::jitAvailable())
        << "round " << Round;
  }
}

} // namespace
