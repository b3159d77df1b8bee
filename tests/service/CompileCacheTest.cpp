//===- tests/service/CompileCacheTest.cpp ---------------------------------===//
//
// The content-addressed compilation cache's contract: alpha-renamed
// sources hit (the memo key hashes structure, not spellings), semantic
// changes and callee-index shifts miss, every ablation configuration owns
// a distinct options fingerprint (and Jobs none at all), LRU eviction
// honors the byte budget, and — the load-bearing property — a warm cache
// links programs bit-identical to a fresh compile, counters and remarks
// included.
//
//===----------------------------------------------------------------------===//

#include "service/CompileCache.h"

#include "driver/Ablation.h"
#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "stats/Stats.h"

#include "gtest/gtest.h"

#include <map>
#include <set>

using namespace s1lisp;
using namespace s1lisp::service;

namespace {

driver::CompileOutcome compileWith(ir::Module &M, const std::string &Source,
                                   CompileCache *Cache,
                                   stats::RemarkStream *Remarks = nullptr) {
  driver::CompilerOptions Opts;
  Opts.Cse = true;
  return driver::compileSource(M, Source, Opts, Remarks, Cache);
}

/// Per-request counter view the service reports: everything the compile
/// recorded except the cache's own service.* traffic (hit and miss
/// requests differ there by design).
std::vector<stats::TallyDelta> compilerDeltas(const stats::LocalTally &T) {
  std::vector<stats::TallyDelta> Out;
  for (const stats::TallyDelta &D : T.deltas())
    if (D.Name.rfind("service.", 0) != 0)
      Out.push_back(D);
  return Out;
}

/// SymbolAddr keys are per-module Symbol pointers; compare by name.
std::map<std::string, uint64_t> symbolAddrsByName(const s1::Program &P) {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Sym, Addr] : P.SymbolAddr)
    Out[Sym->name()] = Addr;
  return Out;
}

/// A synthetic cache entry of roughly \p Words * 8 retained bytes, for
/// budget tests that shouldn't depend on real codegen sizes.
std::shared_ptr<driver::MemoizedFunction> entryOfWords(size_t Words) {
  auto MF = std::make_shared<driver::MemoizedFunction>();
  MF->Unit.Ok = true;
  MF->Unit.Static.assign(Words, 0);
  return MF;
}

TEST(CompileCache, AlphaRenamedSourceHits) {
  const std::string A = "(defun add3 (x y z) (+ x (+ y z)))\n"
                        "(defun fut (n) (add3 n n n))\n";
  // Same functions with every local consistently renamed.
  const std::string B = "(defun add3 (u v w) (+ u (+ v w)))\n"
                        "(defun fut (m) (add3 m m m))\n";

  CompileCache Cache;
  ir::Module MA, MB;
  driver::CompileOutcome RA = compileWith(MA, A, &Cache);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  EXPECT_EQ(RA.MemoHits, 0u);
  EXPECT_EQ(RA.MemoMisses, 2u);

  driver::CompileOutcome RB = compileWith(MB, B, &Cache);
  ASSERT_TRUE(RB.Ok) << RB.Error;
  EXPECT_EQ(RB.MemoHits, 2u);
  EXPECT_EQ(RB.MemoMisses, 0u);

  // The renamed module linked the cached units: programs match.
  EXPECT_EQ(driver::listing(RA.Program), driver::listing(RB.Program));
}

TEST(CompileCache, SemanticChangeMisses) {
  CompileCache Cache;
  ir::Module MA, MB;
  driver::CompileOutcome RA = compileWith(
      MA, "(defun f (x) (+ x 1))\n(defun fut (n) (f n))\n", &Cache);
  ASSERT_TRUE(RA.Ok) << RA.Error;

  // f's body changes (a different literal); fut is untouched.
  driver::CompileOutcome RB = compileWith(
      MB, "(defun f (x) (+ x 2))\n(defun fut (n) (f n))\n", &Cache);
  ASSERT_TRUE(RB.Ok) << RB.Error;
  EXPECT_EQ(RB.MemoHits, 1u);
  EXPECT_EQ(RB.MemoMisses, 1u);
}

TEST(CompileCache, CalleeIndexShiftMisses) {
  // g calls f; units bake the callee's module-function index into the
  // call, so the same g text in a module where f sits at a different
  // slot must not reuse the cached unit.
  CompileCache Cache;
  ir::Module MA, MB;
  driver::CompileOutcome RA = compileWith(
      MA, "(defun f () 1)\n(defun g () (f))\n", &Cache);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  EXPECT_EQ(RA.MemoMisses, 2u);

  driver::CompileOutcome RB = compileWith(
      MB, "(defun h () 2)\n(defun f () 1)\n(defun g () (f))\n", &Cache);
  ASSERT_TRUE(RB.Ok) << RB.Error;
  // f references no globals, so it hits at its new slot; h is new and g's
  // callee signature shifted, so both miss.
  EXPECT_EQ(RB.MemoHits, 1u);
  EXPECT_EQ(RB.MemoMisses, 2u);
}

TEST(CompileCache, OptionsFingerprintSeparatesTheAblationMatrix) {
  std::vector<driver::AblationConfig> Matrix = driver::ablationMatrix();
  ASSERT_GT(Matrix.size(), 10u);
  std::set<uint64_t> Fingerprints;
  for (const driver::AblationConfig &C : Matrix)
    EXPECT_TRUE(
        Fingerprints.insert(driver::optionsFingerprint(C.Opts)).second)
        << "fingerprint collision at config '" << C.Name << "'";

  // Jobs is pure parallelism — output is bit-identical for any count — so
  // it must not split the cache.
  driver::CompilerOptions J1 = Matrix.front().Opts, J8 = Matrix.front().Opts;
  J1.Jobs = 1;
  J8.Jobs = 8;
  EXPECT_EQ(driver::optionsFingerprint(J1), driver::optionsFingerprint(J8));
}

TEST(CompileCache, DifferentOptionsMissEachOther) {
  const std::string Src = "(defun fut (x) (* (+ x 0) 1))\n";
  CompileCache Cache;
  ir::Module MA, MB;
  driver::CompilerOptions O2;
  driver::CompilerOptions O0;
  O0.Optimize = false;
  driver::CompileOutcome RA = driver::compileSource(MA, Src, O2, nullptr, &Cache);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  driver::CompileOutcome RB = driver::compileSource(MB, Src, O0, nullptr, &Cache);
  ASSERT_TRUE(RB.Ok) << RB.Error;
  EXPECT_EQ(RB.MemoHits, 0u);
  EXPECT_EQ(RB.MemoMisses, 1u);
  EXPECT_EQ(Cache.entries(), 2u);
}

TEST(CompileCache, WarmCacheLinksBitIdenticalPrograms) {
  // A generated many-function module (closures, floats, strings) so the
  // equality below covers static pools, string tables, and lifted
  // closures, not just straight-line code.
  fuzz::GenOptions GO;
  GO.Helpers = 24;
  std::string Source = fuzz::Generator(4242, GO).generate().Source;

  // Fresh: no memo anywhere near the compile.
  ir::Module MFresh;
  stats::RemarkStream FreshRemarks;
  stats::LocalTally FreshTally;
  driver::CompileOutcome Fresh = [&] {
    stats::TallyScope Scope(FreshTally);
    return compileWith(MFresh, Source, nullptr, &FreshRemarks);
  }();
  ASSERT_TRUE(Fresh.Ok) << Fresh.Error;

  // Prime the cache, then compile the same source again from it.
  CompileCache Cache;
  ir::Module MPrime;
  driver::CompileOutcome Prime = compileWith(MPrime, Source, &Cache);
  ASSERT_TRUE(Prime.Ok) << Prime.Error;
  EXPECT_EQ(Prime.MemoHits, 0u);

  ir::Module MWarm;
  stats::RemarkStream WarmRemarks;
  stats::LocalTally WarmTally;
  driver::CompileOutcome Warm = [&] {
    stats::TallyScope Scope(WarmTally);
    return compileWith(MWarm, Source, &Cache, &WarmRemarks);
  }();
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.MemoMisses, 0u);
  EXPECT_EQ(Warm.MemoHits, Prime.MemoMisses);

  // Bit-identity: program text, static image, symbol/string directories.
  EXPECT_EQ(driver::listing(Fresh.Program), driver::listing(Warm.Program));
  EXPECT_EQ(Fresh.Program.Static, Warm.Program.Static);
  EXPECT_EQ(symbolAddrsByName(Fresh.Program), symbolAddrsByName(Warm.Program));
  EXPECT_EQ(Fresh.Program.StringAddr, Warm.Program.StringAddr);
  ASSERT_EQ(Fresh.Program.Functions.size(), Warm.Program.Functions.size());
  for (size_t I = 0; I < Fresh.Program.Functions.size(); ++I) {
    const s1::AsmFunction &A = Fresh.Program.Functions[I];
    const s1::AsmFunction &B = Warm.Program.Functions[I];
    EXPECT_EQ(A.Name, B.Name) << "function " << I;
    EXPECT_EQ(A.FrameSize, B.FrameSize) << A.Name;
    EXPECT_EQ(A.MinArgs, B.MinArgs) << A.Name;
    EXPECT_EQ(A.MaxArgs, B.MaxArgs) << A.Name;
    EXPECT_EQ(A.HasRest, B.HasRest) << A.Name;
  }

  // The hit replayed the recorded remarks and counter deltas: transcripts
  // and (service.*-filtered) stats match a fresh compile exactly.
  EXPECT_EQ(FreshRemarks.Remarks, WarmRemarks.Remarks);
  EXPECT_EQ(stats::tallyDeltasJson(compilerDeltas(FreshTally)),
            stats::tallyDeltasJson(compilerDeltas(WarmTally)));
}

TEST(CompileCache, CrossModuleReuseOfSharedHelpers) {
  // Two different programs sharing a helper library: the second compile
  // reuses the helpers and only compiles its own entry.
  const std::string Lib = "(defun sq (x) (* x x))\n"
                          "(defun cube (x) (* x (sq x)))\n";
  CompileCache Cache;
  ir::Module MA, MB;
  driver::CompileOutcome RA =
      compileWith(MA, Lib + "(defun fut (n) (sq n))\n", &Cache);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  EXPECT_EQ(RA.MemoMisses, 3u);

  driver::CompileOutcome RB =
      compileWith(MB, Lib + "(defun fut (n) (cube (+ n 1)))\n", &Cache);
  ASSERT_TRUE(RB.Ok) << RB.Error;
  EXPECT_EQ(RB.MemoHits, 2u);
  EXPECT_EQ(RB.MemoMisses, 1u);
}

TEST(CompileCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  auto Probe = entryOfWords(1000);
  const size_t EntryBytes = Probe->byteSize();
  ASSERT_GT(EntryBytes, 0u);

  CompileCache Cache(3 * EntryBytes + EntryBytes / 2);
  for (uint64_t Key = 1; Key <= 3; ++Key)
    Cache.insert(Key, entryOfWords(1000));
  EXPECT_EQ(Cache.entries(), 3u);
  EXPECT_EQ(Cache.evictions(), 0u);

  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_NE(Cache.lookup(1), nullptr);
  Cache.insert(4, entryOfWords(1000));
  EXPECT_EQ(Cache.entries(), 3u);
  EXPECT_EQ(Cache.evictions(), 1u);
  EXPECT_LE(Cache.bytes(), Cache.maxBytes());
  EXPECT_EQ(Cache.lookup(2), nullptr);
  EXPECT_NE(Cache.lookup(1), nullptr);
  EXPECT_NE(Cache.lookup(4), nullptr);
}

TEST(CompileCache, ShrinkingTheBudgetEvictsImmediately) {
  CompileCache Cache;
  for (uint64_t Key = 1; Key <= 8; ++Key)
    Cache.insert(Key, entryOfWords(1000));
  ASSERT_EQ(Cache.entries(), 8u);

  Cache.setMaxBytes(2 * entryOfWords(1000)->byteSize() + 16);
  EXPECT_LE(Cache.entries(), 2u);
  EXPECT_LE(Cache.bytes(), Cache.maxBytes());
  EXPECT_GE(Cache.evictions(), 6u);
}

TEST(CompileCache, OversizedEntryIsNotStored) {
  auto Big = entryOfWords(10000);
  CompileCache Cache(Big->byteSize() / 2);
  Cache.insert(7, Big);
  EXPECT_EQ(Cache.entries(), 0u);
  EXPECT_EQ(Cache.lookup(7), nullptr);
}

// Front entries share the LRU and its byte budget with function units:
// a stream of distinct modules never leaves the cache over budget, and
// the oldest module's front entries are evicted with its units.
TEST(CompileCache, FrontEntriesStayWithinTheByteBudget) {
  // A front entry is charged its bytes like a unit, and one larger than
  // the whole budget is not stored.
  auto Front = std::make_shared<driver::FrontEntry>();
  Front->Globals.assign(100, "global");
  CompileCache Probe;
  Probe.insertFront(1, Front);
  EXPECT_EQ(Probe.bytes(), Front->byteSize());
  CompileCache Small(Front->byteSize() / 2);
  Small.insertFront(1, Front);
  EXPECT_EQ(Small.frontEntries(), 0u);

  CompileCache Cache(32u << 10);
  auto Module = [](int I) {
    std::string N = std::to_string(I);
    return "(defun sq" + N + " (x) (* x (+ x " + N + ")))\n" +
           "(defun fut" + N + " (n) (list (sq" + N + " n) \"s" + N + "\"))\n";
  };
  for (int I = 0; I < 64; ++I) {
    ir::Module M;
    ASSERT_TRUE(compileWith(M, Module(I), &Cache).Ok);
    ASSERT_LE(Cache.bytes(), Cache.maxBytes()) << "after module " << I;
  }
  EXPECT_GT(Cache.evictions(), 0u);
  EXPECT_GT(Cache.frontEntries(), 0u);
  EXPECT_LT(Cache.frontEntries(), 2u * 64);

  const uint64_t Hits = Cache.frontHits();
  ir::Module M;
  driver::CompileOutcome Again = compileWith(M, Module(0), &Cache);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Cache.frontHits(), Hits);
  EXPECT_EQ(Again.MemoMisses, 2u);
}

// Entries, hits and misses count function units; front traffic has its
// own counters.
TEST(CompileCache, FrontTrafficIsCountedApart) {
  CompileCache Cache;
  const std::string Src = "(defun f (x) (+ x 1))\n(defun fut (n) (f n))\n";
  ir::Module MA, MB;
  ASSERT_TRUE(compileWith(MA, Src, &Cache).Ok);
  ASSERT_TRUE(compileWith(MB, Src, &Cache).Ok);
  EXPECT_EQ(Cache.entries(), 2u);
  EXPECT_EQ(Cache.frontEntries(), 2u);
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.frontHits(), 2u);
  EXPECT_EQ(Cache.frontMisses(), 2u);
}

TEST(CompileCache, ClearDropsEverything) {
  CompileCache Cache;
  Cache.insert(1, entryOfWords(10));
  Cache.insert(2, entryOfWords(10));
  ASSERT_EQ(Cache.entries(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.entries(), 0u);
  EXPECT_EQ(Cache.bytes(), 0u);
  EXPECT_EQ(Cache.lookup(1), nullptr);
}

} // namespace
