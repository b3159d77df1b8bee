//===- tests/ir/NodeArenaTest.cpp -----------------------------------------===//
//
// The bump arena backing IR nodes: bulk destruction, move semantics, and
// pointer stability across chunk boundaries.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include "gtest/gtest.h"

using namespace s1lisp;

namespace {

struct Counting {
  static int Live;
  std::vector<int> Payload{1, 2, 3}; // non-trivial dtor
  Counting() { ++Live; }
  ~Counting() { --Live; }
};
int Counting::Live = 0;

TEST(NodeArena, CreatesAndDestroysInBulk) {
  {
    NodeArena A;
    for (int I = 0; I < 100; ++I)
      A.create<Counting>();
    EXPECT_EQ(Counting::Live, 100);
  }
  EXPECT_EQ(Counting::Live, 0) << "arena death must run destructors";
}

TEST(NodeArena, MoveTransfersOwnership) {
  NodeArena C;
  C.create<Counting>();
  {
    NodeArena A;
    Counting *P = A.create<Counting>();
    EXPECT_EQ(P->Payload.size(), 3u);
    NodeArena B(std::move(A));
    EXPECT_EQ(Counting::Live, 2) << "move must not destroy";
    C = std::move(B);
    EXPECT_EQ(Counting::Live, 1) << "move-assign destroys the old contents";
  }
  EXPECT_EQ(Counting::Live, 1) << "moved-from arenas own nothing";
}

TEST(NodeArena, SpansChunkBoundaries) {
  NodeArena A;
  struct Big {
    char Bytes[10000];
  };
  std::vector<Big *> Ptrs;
  for (int I = 0; I < 20; ++I) // 200 KB, several 64 KB chunks
    Ptrs.push_back(A.create<Big>());
  for (Big *P : Ptrs) {
    P->Bytes[0] = 'x'; // every pointer stays valid as chunks grow
    P->Bytes[sizeof(P->Bytes) - 1] = 'y';
  }
}

} // namespace
