//===- tests/sexpr/ValueTest.cpp - Value model unit tests -----------------===//

#include "sexpr/Printer.h"
#include "sexpr/Reader.h"
#include "sexpr/Value.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

using namespace s1lisp;
using namespace s1lisp::sexpr;

namespace {

class ValueTest : public ::testing::Test {
protected:
  SymbolTable Syms;
  Heap H;
};

TEST_F(ValueTest, NilBasics) {
  Value N = Value::nil();
  EXPECT_TRUE(N.isNil());
  EXPECT_TRUE(N.isAtom());
  EXPECT_FALSE(N.isTrue());
  EXPECT_TRUE(N.car().isNil());
  EXPECT_TRUE(N.cdr().isNil());
}

TEST_F(ValueTest, SymbolInterning) {
  const Symbol *A1 = Syms.intern("foo");
  const Symbol *A2 = Syms.intern("foo");
  const Symbol *B = Syms.intern("Foo");
  EXPECT_EQ(A1, A2);
  EXPECT_NE(A1, B) << "symbols are case-sensitive";
  EXPECT_EQ(A1->name(), "foo");
}

TEST_F(ValueTest, ConsAccessors) {
  Value C = H.cons(Value::fixnum(1), Value::fixnum(2));
  EXPECT_TRUE(C.isCons());
  EXPECT_EQ(C.car().fixnum(), 1);
  EXPECT_EQ(C.cdr().fixnum(), 2);
}

TEST_F(ValueTest, ListBuildAndFlatten) {
  Value L = H.list({Value::fixnum(1), Value::fixnum(2), Value::fixnum(3)});
  EXPECT_TRUE(isProperList(L));
  EXPECT_EQ(listLength(L), 3u);
  auto V = listToVector(L);
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[2].fixnum(), 3);
}

TEST_F(ValueTest, ImproperListDetected) {
  Value L = H.cons(Value::fixnum(1), Value::fixnum(2));
  EXPECT_FALSE(isProperList(L));
}

TEST_F(ValueTest, RatioNormalization) {
  Value R = H.makeRatio(4, 6);
  ASSERT_TRUE(R.isRatio());
  EXPECT_EQ(R.ratio().Num, 2);
  EXPECT_EQ(R.ratio().Den, 3);
}

TEST_F(ValueTest, RatioCollapsesToFixnum) {
  Value R = H.makeRatio(6, 3);
  ASSERT_TRUE(R.isFixnum());
  EXPECT_EQ(R.fixnum(), 2);
}

TEST_F(ValueTest, RatioSignNormalization) {
  Value R = H.makeRatio(1, -2);
  ASSERT_TRUE(R.isRatio());
  EXPECT_EQ(R.ratio().Num, -1);
  EXPECT_EQ(R.ratio().Den, 2);
}

TEST_F(ValueTest, EqlSemantics) {
  EXPECT_TRUE(eql(Value::fixnum(3), Value::fixnum(3)));
  EXPECT_FALSE(eql(Value::fixnum(3), Value::flonum(3.0)))
      << "eql distinguishes exact from inexact";
  Value C1 = H.cons(Value::nil(), Value::nil());
  Value C2 = H.cons(Value::nil(), Value::nil());
  EXPECT_TRUE(eql(C1, C1));
  EXPECT_FALSE(eql(C1, C2));
}

TEST_F(ValueTest, EqualIsStructural) {
  Value A = H.list({Value::fixnum(1), H.list({Value::fixnum(2)})});
  Value B = H.list({Value::fixnum(1), H.list({Value::fixnum(2)})});
  EXPECT_TRUE(equal(A, B));
  Value C = H.list({Value::fixnum(1), H.list({Value::fixnum(3)})});
  EXPECT_FALSE(equal(A, C));
}

TEST_F(ValueTest, PrinterRoundShapes) {
  EXPECT_EQ(toString(Value::nil()), "nil");
  EXPECT_EQ(toString(Value::fixnum(-42)), "-42");
  EXPECT_EQ(toString(Value::flonum(3.0)), "3.0");
  EXPECT_EQ(toString(H.makeRatio(1, 3)), "1/3");
  EXPECT_EQ(toString(H.string("a\"b")), "\"a\\\"b\"");
  Value L = H.list({Value::symbol(Syms.intern("f")), Value::fixnum(1)});
  EXPECT_EQ(toString(L), "(f 1)");
  Value Dotted = H.cons(Value::fixnum(1), Value::fixnum(2));
  EXPECT_EQ(toString(Dotted), "(1 . 2)");
}

TEST_F(ValueTest, FlonumPrintingRoundTrips) {
  for (double D : {0.159154942, 1e30, -2.5e-7, 0.1, 12345.0}) {
    std::string S = formatFlonum(D);
    EXPECT_EQ(strtod(S.c_str(), nullptr), D) << S;
  }
}

/// The cells \p Data reaches, each counted once: conses, and strings and
/// ratios.
struct CellCounts {
  size_t Conses = 0;
  size_t Atoms = 0;
};
CellCounts cellsOf(const std::vector<Value> &Data) {
  CellCounts N;
  std::unordered_set<const void *> Seen;
  std::vector<Value> Todo(Data.begin(), Data.end());
  while (!Todo.empty()) {
    Value V = Todo.back();
    Todo.pop_back();
    if (V.isCons()) {
      if (!Seen.insert(V.consCell()).second)
        continue;
      ++N.Conses;
      Todo.push_back(V.car());
      Todo.push_back(V.cdr());
    } else if (V.isString() || V.isRatio()) {
      const void *P = V.isString() ? static_cast<const void *>(&V.stringValue())
                                   : static_cast<const void *>(&V.ratio());
      N.Atoms += Seen.insert(P).second;
    }
  }
  return N;
}

TEST_F(ValueTest, ReadCountsExactlyTheCellsItBuilt) {
  // Lists built whole by Heap::list, quotes, dotted tails, strings and
  // ratios: the heap's counters must account for every cell the data
  // reach and no other, with GC off and with a collection before every
  // cons (the reader roots the lists it has open and the data read so
  // far, so no collection may free any of them).
  const char *Src = "(defun f (x &optional (y '(1 . 2))) (list \"s\" 1/3 x y))\n"
                    "'((a) (b . c) ('d) \"e\" -2/4) (((()))) ((x) . (y z))";
  std::string Printed;
  for (uint64_t GcEvery : {uint64_t(0), uint64_t(1)}) {
    SCOPED_TRACE("gc every " + std::to_string(GcEvery));
    SymbolTable Syms;
    Heap H;
    H.setGcEvery(GcEvery);
    DiagEngine Diags;
    std::vector<Value> Data = readAll(Syms, H, Src, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    ASSERT_EQ(Data.size(), 4u);
    CellCounts N = cellsOf(Data);
    EXPECT_EQ(N.Conses, 36u);
    EXPECT_EQ(N.Atoms, 4u);
    EXPECT_EQ(H.consCount(), N.Conses);
    EXPECT_EQ(H.liveCells(), N.Conses + N.Atoms);
    EXPECT_EQ(H.gcStats().CellsSwept, 0u);
    EXPECT_EQ(H.gcStats().Collections, GcEvery ? N.Conses : 0u);
    std::string P;
    for (Value V : Data)
      P += toString(V) + "\n";
    if (Printed.empty())
      Printed = P;
    EXPECT_EQ(P, Printed);
  }
}

// --- Concurrency contracts of the sharded table and striped heap. These
// run through support::parallelFor so the worker pool itself is also
// under test (and under TSan in the sanitizer CI job).

TEST_F(ValueTest, ConcurrentInternYieldsOneIdentityPerName) {
  // Every worker interns the same 64 names; each name must resolve to
  // exactly one Symbol no matter which shard or thread got there first.
  constexpr unsigned Workers = 8;
  constexpr unsigned Names = 64;
  const size_t Baseline = Syms.size(); // ctor pre-interns t/quote
  std::vector<std::vector<const Symbol *>> Seen(Workers);
  support::parallelFor(Workers, Workers, [&](size_t W) {
    for (unsigned Round = 0; Round < 50; ++Round)
      for (unsigned N = 0; N < Names; ++N)
        Seen[W].push_back(Syms.intern("contended-" + std::to_string(N)));
  });
  for (unsigned N = 0; N < Names; ++N) {
    const Symbol *Canon = Syms.intern("contended-" + std::to_string(N));
    EXPECT_EQ(Canon->name(), "contended-" + std::to_string(N));
    for (unsigned W = 0; W < Workers; ++W)
      for (unsigned Round = 0; Round < 50; ++Round)
        EXPECT_EQ(Seen[W][Round * Names + N], Canon)
            << "worker " << W << " saw a duplicate identity for name " << N;
  }
  EXPECT_EQ(Syms.size(), Baseline + Names);
}

TEST_F(ValueTest, ConcurrentDistinctInternsAllLand) {
  // Disjoint name sets from every worker: size() must converge on the
  // exact population even though it reads shard counters lock-free.
  constexpr unsigned Workers = 8;
  constexpr unsigned PerWorker = 200;
  const size_t Baseline = Syms.size(); // ctor pre-interns t/quote
  support::parallelFor(Workers, Workers, [&](size_t W) {
    for (unsigned N = 0; N < PerWorker; ++N)
      Syms.intern("w" + std::to_string(W) + "-n" + std::to_string(N));
  });
  EXPECT_EQ(Syms.size(), Baseline + size_t(Workers) * PerWorker);
  std::set<const Symbol *> Unique;
  for (unsigned W = 0; W < Workers; ++W)
    for (unsigned N = 0; N < PerWorker; ++N)
      Unique.insert(Syms.intern("w" + std::to_string(W) + "-n" +
                                std::to_string(N)));
  EXPECT_EQ(Unique.size(), size_t(Workers) * PerWorker);
}

TEST_F(ValueTest, ConcurrentConsKeepsCellsAndCount) {
  // Workers allocate from thread-affine regions; every cell must survive
  // with its payload intact, and consCount() must total the regions.
  constexpr unsigned Workers = 8;
  constexpr unsigned PerWorker = 500;
  std::vector<std::vector<Value>> Cells(Workers);
  support::parallelFor(Workers, Workers, [&](size_t W) {
    for (unsigned N = 0; N < PerWorker; ++N)
      Cells[W].push_back(H.cons(Value::fixnum(int64_t(W)),
                                Value::fixnum(int64_t(N))));
  });
  EXPECT_EQ(H.consCount(), size_t(Workers) * PerWorker);
  for (unsigned W = 0; W < Workers; ++W)
    for (unsigned N = 0; N < PerWorker; ++N) {
      ASSERT_TRUE(Cells[W][N].isCons());
      EXPECT_EQ(Cells[W][N].car().fixnum(), int64_t(W));
      EXPECT_EQ(Cells[W][N].cdr().fixnum(), int64_t(N));
    }
}

TEST_F(ValueTest, ConcurrentListBuilding) {
  // The parallel pipeline's workers build whole lists (one region lock
  // each) and single conses on one GC-free heap: every list must keep its
  // items, tail and location, and the counters must total both kinds.
  constexpr unsigned Workers = 4;
  constexpr unsigned Rounds = 300;
  std::vector<std::vector<Value>> Lists(Workers);
  support::parallelFor(Workers, Workers, [&](size_t W) {
    for (unsigned N = 0; N < Rounds; ++N) {
      std::vector<Value> Items;
      for (unsigned I = 0; I <= N % 7; ++I)
        Items.push_back(Value::fixnum(int64_t(W * 1000 + I)));
      Value Tail = H.cons(Value::fixnum(int64_t(N)), Value::nil());
      Lists[W].push_back(
          H.list(Items, Tail, SourceLocation{uint32_t(W + 1), N + 1}));
    }
  });
  size_t Cells = 0;
  for (unsigned W = 0; W < Workers; ++W)
    for (unsigned N = 0; N < Rounds; ++N) {
      Value L = Lists[W][N];
      for (unsigned I = 0; I <= N % 7; ++I, L = L.cdr()) {
        ASSERT_TRUE(L.isCons());
        EXPECT_EQ(L.car().fixnum(), int64_t(W * 1000 + I));
        EXPECT_EQ(L.consCell()->Loc, (SourceLocation{uint32_t(W + 1), N + 1}));
        ++Cells;
      }
      ASSERT_TRUE(L.isCons());
      EXPECT_EQ(L.car().fixnum(), int64_t(N));
      EXPECT_TRUE(L.cdr().isNil());
      ++Cells;
    }
  EXPECT_EQ(H.consCount(), Cells);
  EXPECT_EQ(H.liveCells(), Cells);
}

TEST_F(ValueTest, AggregatesReadableWhileWritersRun) {
  // size()/consCount() are documented lock-free: a reader spinning
  // through them must never block writers or tear (monotone growth).
  constexpr unsigned Writers = 4;
  std::atomic<bool> Stop{false};
  size_t LastSyms = 0, LastConses = 0;
  bool Monotone = true;
  support::parallelFor(Writers + 1, Writers + 1, [&](size_t W) {
    if (W == 0) { // reader
      while (!Stop.load(std::memory_order_acquire)) {
        size_t S = Syms.size(), C = H.consCount();
        if (S < LastSyms || C < LastConses)
          Monotone = false;
        LastSyms = S;
        LastConses = C;
      }
      return;
    }
    for (unsigned N = 0; N < 300; ++N) {
      Syms.intern("live-w" + std::to_string(W) + "-" + std::to_string(N));
      H.cons(Value::fixnum(int64_t(N)), Value::nil());
    }
    if (W == 1) // any single writer finishing is enough signal
      Stop.store(true, std::memory_order_release);
  });
  Stop.store(true, std::memory_order_release);
  EXPECT_TRUE(Monotone) << "lock-free aggregate went backwards";
  EXPECT_EQ(H.consCount(), size_t(Writers) * 300);
}

} // namespace
