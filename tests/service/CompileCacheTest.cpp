//===- tests/service/CompileCacheTest.cpp ---------------------------------===//
//
// The content-addressed compilation cache's contract: a unit is keyed by
// its defun's source text, so renamed locals and semantic changes miss
// and answer as a fresh compile does, callee-index shifts miss, every
// ablation configuration owns a distinct options fingerprint (and Jobs
// none at all), LRU eviction honors the byte budget, and — the
// load-bearing property — a warm cache links programs bit-identical to a
// fresh compile, counters and remarks included. Remarks are stored only
// by compiles that ask for them; a remarks compile upgrades a hit stored
// without them.
//
//===----------------------------------------------------------------------===//

#include "service/CompileCache.h"

#include "driver/Ablation.h"
#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "stats/Stats.h"

#include "harness/RenamedTwin.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

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

/// A CompileCache that counts the units offered to it and keeps the last
/// one offered under each key. The driver offers units serially, after
/// its fan-out, so the counters need no lock.
class CountingCache : public CompileCache {
public:
  void insert(uint64_t Key,
              std::shared_ptr<const driver::MemoizedFunction> Fn) override {
    ++Inserts;
    Offered[Key] = Fn;
    CompileCache::insert(Key, std::move(Fn));
  }

  unsigned Inserts = 0;
  std::map<uint64_t, std::shared_ptr<const driver::MemoizedFunction>> Offered;
};

/// A generated many-function module whose compile fires rewrites.
std::string remarkHeavySource() {
  fuzz::GenOptions GO;
  GO.Helpers = 12;
  return fuzz::Generator(4242, GO).generate().Source;
}

/// A synthetic cache entry of roughly \p Words * 8 retained bytes, for
/// budget tests that shouldn't depend on real codegen sizes.
std::shared_ptr<driver::MemoizedFunction> entryOfWords(size_t Words) {
  auto MF = std::make_shared<driver::MemoizedFunction>();
  MF->Unit.Ok = true;
  MF->Unit.Static.assign(Words, 0);
  return MF;
}

// A unit is keyed by its defun's text, so a module compiled after its
// renamed twin reuses none of the twin's units and spells its own locals,
// in the listing and in the remarks, as a compile with no cache does.
TEST(CompileCache, RenamedSourceAnswersAsFresh) {
  ir::Module MFresh, MTwin;
  stats::RemarkStream FreshRemarks;
  driver::CompileOutcome Fresh =
      compileWith(MFresh, twin::Module, nullptr, &FreshRemarks);
  ASSERT_TRUE(Fresh.Ok) << Fresh.Error;
  driver::CompileOutcome Twin = compileWith(MTwin, twin::Renamed, nullptr);
  ASSERT_TRUE(Twin.Ok) << Twin.Error;
  ASSERT_NE(driver::listing(Fresh.Program).find("counter#0"),
            std::string::npos);
  ASSERT_NE(driver::listing(Fresh.Program), driver::listing(Twin.Program));

  CompileCache Cache;
  ir::Module MTwinCached, MCached;
  stats::RemarkStream TwinRemarks, Remarks;
  ASSERT_TRUE(
      compileWith(MTwinCached, twin::Renamed, &Cache, &TwinRemarks).Ok);
  driver::CompileOutcome R =
      compileWith(MCached, twin::Module, &Cache, &Remarks);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.MemoHits, 0u);
  EXPECT_EQ(R.MemoMisses, 2u);
  EXPECT_EQ(driver::listing(R.Program), driver::listing(Fresh.Program));
  EXPECT_EQ(Remarks.Remarks, FreshRemarks.Remarks);

  // Renamed prog tags miss too.
  ir::Module MC, MD;
  driver::CompileOutcome RC = compileWith(
      MC,
      "(defun count-up (n) (prog ((i 0)) top (setq i (1+ i))"
      " mid (when (< i n) (go top)) (return i)))\n",
      &Cache);
  ASSERT_TRUE(RC.Ok) << RC.Error;
  EXPECT_EQ(RC.MemoMisses, 1u);
  driver::CompileOutcome RD = compileWith(
      MD,
      "(defun count-up (n) (prog ((i 0)) start (setq i (1+ i))"
      " middle (when (< i n) (go start)) (return i)))\n",
      &Cache);
  ASSERT_TRUE(RD.Ok) << RD.Error;
  EXPECT_EQ(RD.MemoHits, 0u);
  EXPECT_EQ(RD.MemoMisses, 1u);
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

  // A go to another tag of the same prog jumps elsewhere.
  for (const char *Target : {"top", "mid"}) {
    SCOPED_TRACE(Target);
    ir::Module MG;
    driver::CompileOutcome RG = compileWith(
        MG,
        std::string("(defun count-up (n) (prog ((i 0)) top (setq i (1+ i))"
                    " mid (when (< i n) (go ") +
            Target + ")) (return i)))\n",
        &Cache);
    ASSERT_TRUE(RG.Ok) << RG.Error;
    EXPECT_EQ(RG.MemoHits, 0u);
    EXPECT_EQ(RG.MemoMisses, 1u);
  }

  // A fixnum, a flonum and a string that print alike but for their type.
  for (const char *Literal : {"1", "1.0", "\"1\""}) {
    SCOPED_TRACE(Literal);
    ir::Module ML;
    driver::CompileOutcome RL = compileWith(
        ML, std::string("(defun one () ") + Literal + ")\n", &Cache);
    ASSERT_TRUE(RL.Ok) << RL.Error;
    EXPECT_EQ(RL.MemoHits, 0u);
    EXPECT_EQ(RL.MemoMisses, 1u);
  }
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

// Listing comments live in one packed table per function, shared by the
// cached unit and every program linked from it. On every example, a
// program linked from cached units prints the fresh compile's listing
// byte for byte.
TEST(CompileCache, LinkedListingsMatchFreshCompilesOnEveryExample) {
  std::vector<std::string> Sources = {remarkHeavySource()};
  const std::filesystem::path Dir = S1LISP_EXAMPLES_DIR;
  for (const std::filesystem::path &Sub : {Dir, Dir / "gc"})
    for (const auto &E : std::filesystem::directory_iterator(Sub))
      if (E.path().extension() == ".lisp") {
        std::ifstream In(E.path());
        std::stringstream Buf;
        Buf << In.rdbuf();
        Sources.push_back(Buf.str());
      }
  ASSERT_GE(Sources.size(), 6u);
  for (const std::string &Source : Sources) {
    SCOPED_TRACE(Source.substr(0, 60));
    ir::Module MFresh;
    driver::CompileOutcome Fresh = compileWith(MFresh, Source, nullptr);
    ASSERT_TRUE(Fresh.Ok) << Fresh.Error;
    CompileCache Cache;
    ir::Module MPrime, MWarm;
    ASSERT_TRUE(compileWith(MPrime, Source, &Cache).Ok);
    driver::CompileOutcome Warm = compileWith(MWarm, Source, &Cache);
    ASSERT_TRUE(Warm.Ok) << Warm.Error;
    EXPECT_EQ(Warm.MemoMisses, 0u);
    EXPECT_EQ(driver::listing(Warm.Program), driver::listing(Fresh.Program));
  }
}

// A unit's byte size counts its comment table: the same code with
// comments weighs at least the comment text more.
TEST(CompileCache, UnitBytesCountTheCommentTable) {
  s1::Instruction Mov;
  Mov.Op = s1::Opcode::MOV;
  Mov.A = s1::Operand::reg(7);
  Mov.B = s1::Operand::reg(8);
  const std::string Comment(200, 'c');
  codegen::CompiledUnit Plain, Commented;
  Plain.Ok = Commented.Ok = true;
  Plain.Fns.emplace_back();
  Commented.Fns.emplace_back();
  for (int I = 0; I < 10; ++I) {
    Plain.Fns[0].emit(Mov);
    Commented.Fns[0].emit(Mov, Comment);
  }
  EXPECT_EQ(Commented.Fns[0].comment(3), Comment);
  EXPECT_GE(Commented.byteSize(), Plain.byteSize() + 10 * Comment.size());

  // Copies share the table; emitting into a copy leaves the original as it
  // was.
  s1::AsmFunction Copy = Commented.Fns[0];
  Copy.emit(Mov, "only in the copy");
  EXPECT_EQ(Copy.comment(10), "only in the copy");
  EXPECT_EQ(Commented.Fns[0].comment(10), "");
  EXPECT_EQ(Commented.Fns[0].Code.size(), 10u);
}

// A compile with no remark stream stores no remarks, so its entries are
// smaller than those of a compile that asked for them. A later remarks
// compile replaces them with entries equal to that fill's.
TEST(CompileCache, PlainFillCapturesNoRemarks) {
  const std::string Source = remarkHeavySource();
  CountingCache Plain;
  ir::Module MP;
  driver::CompileOutcome P = compileWith(MP, Source, &Plain);
  ASSERT_TRUE(P.Ok) << P.Error;
  ASSERT_EQ(Plain.Inserts, P.MemoMisses);
  for (const auto &[Key, Fn] : Plain.Offered)
    EXPECT_FALSE(Fn->Remarks) << "entry " << Key << " holds remarks";

  CompileCache WithRemarks;
  ir::Module MR;
  stats::RemarkStream Remarks;
  ASSERT_TRUE(compileWith(MR, Source, &WithRemarks, &Remarks).Ok);
  ASSERT_FALSE(Remarks.Remarks.empty());
  EXPECT_LT(Plain.bytes(), WithRemarks.bytes());

  ir::Module MU;
  stats::RemarkStream Upgrade;
  ASSERT_TRUE(compileWith(MU, Source, &Plain, &Upgrade).Ok);
  EXPECT_EQ(Plain.entries(), WithRemarks.entries());
  EXPECT_EQ(Plain.bytes(), WithRemarks.bytes());
}

// A remarks compile over entries stored without remarks counts every
// function as a hit, recompiles each with capture and stores the result;
// its remarks and counters are those of a compile with no memo. The next
// remarks compile replays the stored remarks and compiles nothing.
TEST(CompileCache, RemarksRequestUpgradesPlainEntries) {
  const std::string Source = remarkHeavySource();
  ir::Module MFresh;
  stats::RemarkStream FreshRemarks;
  stats::LocalTally FreshTally;
  driver::CompileOutcome Fresh = [&] {
    stats::TallyScope Scope(FreshTally);
    return compileWith(MFresh, Source, nullptr, &FreshRemarks);
  }();
  ASSERT_TRUE(Fresh.Ok) << Fresh.Error;
  ASSERT_FALSE(FreshRemarks.Remarks.empty());

  CountingCache Cache;
  ir::Module MPlain;
  driver::CompileOutcome Plain = compileWith(MPlain, Source, &Cache);
  ASSERT_TRUE(Plain.Ok) << Plain.Error;
  const unsigned N = Plain.MemoMisses;
  ASSERT_GT(N, 1u);
  ASSERT_EQ(Cache.Inserts, N);

  for (int Round = 1; Round <= 2; ++Round) {
    SCOPED_TRACE("remarks compile " + std::to_string(Round));
    const unsigned InsertsBefore = Cache.Inserts;
    ir::Module M;
    stats::RemarkStream Remarks;
    stats::LocalTally Tally;
    driver::CompileOutcome R = [&] {
      stats::TallyScope Scope(Tally);
      return compileWith(M, Source, &Cache, &Remarks);
    }();
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.MemoHits, N);
    EXPECT_EQ(R.MemoMisses, 0u);
    EXPECT_EQ(Cache.Inserts - InsertsBefore, Round == 1 ? N : 0u);
    EXPECT_EQ(Remarks.Remarks, FreshRemarks.Remarks);
    EXPECT_EQ(stats::tallyDeltasJson(compilerDeltas(Tally)),
              stats::tallyDeltasJson(compilerDeltas(FreshTally)));
    EXPECT_EQ(driver::listing(R.Program), driver::listing(Fresh.Program));
  }
  for (const auto &[Key, Fn] : Cache.Offered)
    EXPECT_TRUE(Fn->Remarks) << "entry " << Key << " was not upgraded";
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
