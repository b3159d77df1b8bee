//===- tests/sexpr/HeapVerifierTest.cpp -----------------------------------===//
//
// The mark-sweep stress harness: forced collections under every schedule
// the runtime exposes, with Heap::verify() asserted clean after each one.
// Covers every cell kind, identity and addresses of surviving cells,
// mutated and cross-heap edges, root providers, reclamation and slot
// reuse, the spacing of budget-triggered collections, and the verifier's
// own freed-cell check.
//
//===----------------------------------------------------------------------===//

#include "sexpr/Value.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace s1lisp;
using sexpr::Heap;
using sexpr::Value;

namespace {

std::string verifyError(Heap &H) {
  std::string Err;
  return H.verify(&Err) ? std::string() : Err;
}

TEST(HeapVerifier, CleanOnFreshHeap) {
  Heap H;
  EXPECT_EQ(verifyError(H), "");
}

TEST(HeapVerifier, ForcedCollectionPreservesListContents) {
  Heap H;
  Value L = Value::nil();
  Heap::RootScope Roots(H);
  Roots.add(&L);
  for (int I = 99; I >= 0; --I)
    L = H.cons(Value::fixnum(I), L);
  H.collect();
  ASSERT_EQ(verifyError(H), "");

  Value Cur = L;
  for (int I = 0; I < 100; ++I) {
    ASSERT_TRUE(Cur.isCons());
    EXPECT_EQ(Cur.car().fixnum(), I);
    Cur = Cur.cdr();
  }
  EXPECT_TRUE(Cur.isNil());
}

TEST(HeapVerifier, EveryCellKindSurvivesACollection) {
  Heap H;
  Value L = Value::nil();
  Heap::RootScope Roots(H);
  Roots.add(&L);
  L = H.cons(H.string("a long string that certainly heap-allocates"), L);
  L = H.cons(H.makeRatio(2, 6), L); // normalizes to 1/3, a RatioCell
  L = H.cons(Value::flonum(2.5), L);
  L = H.cons(Value::fixnum(7), L);
  H.collect();
  ASSERT_EQ(verifyError(H), "");

  EXPECT_EQ(L.car().fixnum(), 7);
  EXPECT_DOUBLE_EQ(L.cdr().car().flonum(), 2.5);
  EXPECT_EQ(L.cdr().cdr().car().ratio().Num, 1);
  EXPECT_EQ(L.cdr().cdr().car().ratio().Den, 3);
  EXPECT_EQ(L.cdr().cdr().cdr().car().stringValue(),
            "a long string that certainly heap-allocates");
}

TEST(HeapVerifier, SharedStructureKeepsIdentity) {
  Heap H;
  Value Shared = H.cons(Value::fixnum(42), Value::nil());
  Value Pair = H.cons(Shared, Shared);
  Heap::RootScope Roots(H);
  Roots.add(&Pair);
  H.collect();
  ASSERT_EQ(verifyError(H), "");
  // One object before the collection must still be one object after it.
  EXPECT_EQ(Pair.car().consCell(), Pair.cdr().consCell());
  EXPECT_TRUE(sexpr::eql(Pair.car(), Pair.cdr()));
  EXPECT_EQ(Pair.car().car().fixnum(), 42);
}

TEST(HeapVerifier, CyclePromotesWithoutLooping) {
  Heap H;
  Value A = H.cons(Value::fixnum(1), Value::nil());
  Value B = H.cons(Value::fixnum(2), A);
  A.consCell()->Cdr = B; // cycle A -> B -> A
  Heap::RootScope Roots(H);
  Roots.add(&A);
  H.collect();
  ASSERT_EQ(verifyError(H), "");
  EXPECT_EQ(A.car().fixnum(), 1);
  EXPECT_EQ(A.cdr().car().fixnum(), 2);
  EXPECT_EQ(A.cdr().cdr().consCell(), A.consCell());
}

TEST(HeapVerifier, GcEveryOneStaysCleanUnderChurn) {
  Heap H;
  H.setGcEvery(1);
  H.setVerifyAfterGc(true); // aborts the test hard on any corruption
  Value L = Value::nil();
  Heap::RootScope Roots(H);
  Roots.add(&L);
  long Expect = 0;
  for (int I = 0; I < 500; ++I) {
    L = H.cons(Value::fixnum(I), L);
    Expect += I;
  }
  ASSERT_EQ(verifyError(H), "");
  EXPECT_GE(H.gcStats().Collections, 400u);

  long Sum = 0;
  for (Value Cur = L; Cur.isCons(); Cur = Cur.cdr())
    Sum += Cur.car().fixnum();
  EXPECT_EQ(Sum, Expect);
}

TEST(HeapVerifier, MutatedOwnCellKeepsItsReferentWithoutABarrier) {
  Heap H;
  H.setGcEvery(1'000'000); // enabled, but only collects when forced
  Value Old = H.cons(Value::fixnum(1), Value::nil());
  Heap::RootScope Roots(H);
  Roots.add(&Old);
  H.collect(); // Old has survived a collection

  Value Young = H.cons(Value::fixnum(2), Value::nil());
  Old.consCell()->Cdr = Young;
  // Young is reachable only through Old's mutated cdr, and no barrier
  // recorded the store: the collection traces it from the root.
  Young = Value::nil();
  H.collect();
  ASSERT_EQ(verifyError(H), "");
  EXPECT_EQ(H.gcStats().CellsSwept, 0u);
  EXPECT_EQ(Old.cdr().car().fixnum(), 2);
}

TEST(HeapVerifier, MajorCollectionReclaimsTenuredGarbage) {
  Heap H;
  H.setGcEvery(1'000'000);
  {
    Value L = Value::nil();
    Heap::RootScope Roots(H);
    Roots.add(&L);
    for (int I = 0; I < 200; ++I)
      L = H.cons(Value::fixnum(I), L);
    H.collect(); // the whole list survives
    EXPECT_GE(H.liveCells(), 200u);
  }
  // The list is no longer rooted; the forced collection must sweep it.
  H.collect();
  ASSERT_EQ(verifyError(H), "");
  EXPECT_GE(H.gcStats().CellsSwept, 200u);
  EXPECT_LT(H.liveCells(), 200u);
}

TEST(HeapVerifier, RootProviderValuesStayAlive) {
  struct Held : sexpr::RootProvider {
    std::vector<Value> Values;
    void visitRoots(const std::function<void(Value)> &Visit) override {
      for (Value V : Values)
        Visit(V);
    }
  };
  Heap H;
  Held P;
  H.registerRootProvider(&P);
  P.Values.push_back(H.cons(Value::fixnum(5), H.string("tail")));
  H.collect();
  ASSERT_EQ(verifyError(H), "");
  EXPECT_EQ(H.gcStats().CellsSwept, 0u);
  EXPECT_EQ(P.Values[0].car().fixnum(), 5);
  EXPECT_EQ(P.Values[0].cdr().stringValue(), "tail");
  H.unregisterRootProvider(&P);
  // With its only root gone, the next collection reclaims both cells.
  H.collect();
  ASSERT_EQ(verifyError(H), "");
  EXPECT_EQ(H.gcStats().CellsSwept, 2u);
}

TEST(HeapVerifier, CrossHeapEdgeIsAPermanentRoot) {
  // A cell of heap B mutated to point into heap A makes B's cell an
  // external root for A's collector via A's persistent cross-heap set.
  // The foreign holder is the target's only path: nothing roots it in A.
  Heap A, B;
  A.setGcEvery(1'000'000);
  Value Holder = B.cons(Value::nil(), Value::nil());
  Holder.consCell()->Car = A.cons(Value::fixnum(9), Value::nil());
  A.writeBarrier(Holder.consCell()); // foreign cell, lands in A's cross-heap set

  A.collect();
  ASSERT_EQ(verifyError(A), "");
  EXPECT_EQ(A.gcStats().CellsSwept, 0u);
  // Had the target been swept, these conses would reuse its slot.
  for (int I = 0; I < 10; ++I)
    A.cons(Value::fixnum(100 + I), Value::nil());
  EXPECT_EQ(Holder.car().car().fixnum(), 9);
}

TEST(HeapVerifier, NurseryIsReusedAcrossCollections) {
  Heap H;
  H.setGcEvery(64);
  H.setVerifyAfterGc(true);
  // Pure churn: nothing is rooted, so every collection frees what the
  // conses since the last one allocated, and they reuse those slots.
  for (int I = 0; I < 10'000; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  ASSERT_EQ(verifyError(H), "");
  EXPECT_GE(H.gcStats().Collections, 100u);
  EXPECT_LE(H.liveCells(), 64u);
  EXPECT_EQ(H.consCount(), 10'000u); // the tally is monotone
}

TEST(HeapVerifier, CellsKeepTheirAddresses) {
  Heap H;
  H.setGcEvery(1);
  H.setVerifyAfterGc(true);
  Value Cell = H.cons(Value::fixnum(1), H.string("pinned"));
  Heap::RootScope Roots(H);
  Roots.add(&Cell);
  const sexpr::Cons *Addr = Cell.consCell();
  const std::string *StrAddr = &Cell.cdr().stringValue();
  for (int I = 0; I < 1'000; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  H.collect();
  ASSERT_EQ(verifyError(H), "");
  EXPECT_EQ(Cell.consCell(), Addr);
  EXPECT_EQ(&Cell.cdr().stringValue(), StrAddr);
  EXPECT_EQ(Cell.car().fixnum(), 1);
  EXPECT_EQ(Cell.cdr().stringValue(), "pinned");
}

TEST(HeapVerifier, BudgetCollectionsAreSpacedOut) {
  // Every cons stays rooted, so the heap is over its 64 KB budget for
  // most of the run; collections must still be spaced by allocation
  // rather than run on every cons.
  Heap H;
  H.setHeapBudget(64 * 1024);
  Value L = Value::nil();
  Heap::RootScope Roots(H);
  Roots.add(&L);
  for (int I = 0; I < 20'000; ++I)
    L = H.cons(Value::fixnum(I), L);
  ASSERT_EQ(verifyError(H), "");
  EXPECT_GE(H.gcStats().Collections, 1u);
  EXPECT_LE(H.gcStats().Collections, 20'000u / 64);
  EXPECT_EQ(H.gcStats().CellsSwept, 0u);
  EXPECT_EQ(sexpr::listLength(L), 20'000u);
}

TEST(HeapVerifier, VerifyReportsAReachableFreedCell) {
  Heap H;
  H.setGcEvery(1'000'000);
  Value Dead = H.cons(Value::fixnum(1), Value::nil());
  H.collect(); // nothing roots Dead yet, so it is swept
  ASSERT_EQ(H.gcStats().CellsSwept, 1u);
  Heap::RootScope Roots(H);
  Roots.add(&Dead);
  EXPECT_EQ(verifyError(H), "reachable cell lies in freed space");
}

TEST(HeapVerifier, ConsArgumentsAreSelfRooted) {
  Heap H;
  H.setGcEvery(1);
  H.setVerifyAfterGc(true);
  // cons(car, cdr) may collect before allocating; its own arguments must
  // survive the collection without any caller-side rooting.
  Value L = Value::nil();
  Heap::RootScope Roots(H);
  Roots.add(&L);
  for (int I = 0; I < 100; ++I)
    L = H.cons(H.cons(Value::fixnum(I), Value::nil()), L);
  ASSERT_EQ(verifyError(H), "");
  int I = 99;
  for (Value Cur = L; Cur.isCons(); Cur = Cur.cdr(), --I)
    EXPECT_EQ(Cur.car().car().fixnum(), I);
}

} // namespace
