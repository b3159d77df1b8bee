//===- vm/Machine.h - The S-1/64 simulator ----------------------*- C++ -*-===//
///
/// \file
/// Executes assembled s1::Programs and provides the LISP runtime system:
/// the tagged heap, pointer certification (§6.3), the deep-binding special
/// stack (§4.4), catch/throw unwinding, and the generic-arithmetic and
/// list "SQ routines" compiled code calls into.
///
/// Three execution engines share one runtime-service layer:
///
///  * **Legacy** — the original interpretive switch over s1::Instruction,
///    decoding operand modes on every step. Kept as the reference the
///    other engines are differentially tested against.
///  * **Threaded** (default) — executes the pre-decoded internal form
///    (vm/Predecode.h): labels stripped, branch targets resolved, operand
///    modes fused into specialized handlers, dispatched by computed goto
///    (GNU labels-as-values; the build requires GCC or Clang).
///  * **Native** — the x86-64 block compiler (vm/Jit.h) over the same
///    pre-decoded form. Its cold ops call the threaded engine's executor,
///    and a block that does not fit in the remaining fuel continues in the
///    threaded loop, which raises the exact trap; hosts without the tier
///    fall back to Threaded.
///
/// All three engines return the same value or the same trap text, pc
/// included, and retire **bit-identical MachineStats** (Instructions,
/// Movs, PerOpcode, SpecialSearchSteps, GcRuns, ...) — the measurements
/// behind every benchmark table in EXPERIMENTS.md. tests/vm/EngineHarness.h
/// holds every engine-against-engine test to that one rule.
///
/// Special-variable lookups additionally go through a per-symbol shallow
/// cache over the deep-binding stack: hits skip the linear search but
/// charge SpecialSearchSteps exactly what the search would have cost, so
/// the §4.4 tables stay honest; the cache is invalidated on rebinding and
/// unwinding.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_VM_MACHINE_H
#define S1LISP_VM_MACHINE_H

#include "s1/Isa.h"
#include "sexpr/Value.h"
#include "vm/Predecode.h"

#include <array>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace s1lisp {
namespace vm {

/// Memory layout (word addresses).
constexpr uint64_t StaticBase = 16;
constexpr uint64_t SpecBase = 1ull << 19;   ///< deep-binding stack region
constexpr uint64_t StackBase = 1ull << 20;  ///< control/value stack (grows up)
constexpr uint64_t StackWords = 1ull << 20;
constexpr uint64_t HeapBase = StackBase + StackWords;
constexpr uint64_t HeapWords = 1ull << 22;
constexpr uint64_t MemoryWords = HeapBase + HeapWords;

inline bool isStackAddress(uint64_t Addr) {
  return Addr >= StackBase && Addr < StackBase + StackWords;
}

/// The simulated address space. calloc-backed rather than a zero-filled
/// std::vector so that constructing a Machine costs pages-touched, not a
/// ~50 MB memset — the differential fuzzer builds thousands of Machines
/// per run and only ever touches a sliver of each address space.
class AddressSpace {
public:
  explicit AddressSpace(size_t NWords)
      : Mem(static_cast<uint64_t *>(std::calloc(NWords, sizeof(uint64_t)))),
        NWords(Mem ? NWords : 0) {}

  uint64_t &operator[](size_t I) { return Mem.get()[I]; }
  const uint64_t &operator[](size_t I) const { return Mem.get()[I]; }
  size_t size() const { return NWords; }

private:
  struct FreeDeleter {
    void operator()(uint64_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint64_t[], FreeDeleter> Mem;
  size_t NWords;
};

/// Execution counters.
struct MachineStats {
  uint64_t Instructions = 0;
  uint64_t Movs = 0;            ///< MOV opcodes retired (the §6.1 metric)
  uint64_t Calls = 0;
  uint64_t TailCalls = 0;
  uint64_t Syscalls = 0;
  uint64_t HeapObjects = 0;     ///< boxed objects allocated
  uint64_t HeapWordsUsed = 0;
  uint64_t StackHighWater = 0;  ///< max SP - StackBase
  uint64_t SpecialSearches = 0;
  uint64_t SpecialSearchSteps = 0;
  /// Deterministic GC counters (identical across engines; pause *timing*
  /// lives outside MachineStats, see Machine::gcPauseNs).
  uint64_t GcRuns = 0;
  uint64_t GcWordsReclaimed = 0;
  std::array<uint64_t, 64> PerOpcode{};

  bool operator==(const MachineStats &) const = default;
};

/// Which dispatch loop executes compiled code.
enum class Engine : uint8_t {
  Legacy,   ///< interpretive switch over s1::Instruction
  Threaded, ///< pre-decoded fused handlers, dispatched by computed goto
  Native,   ///< template-JIT over the XInsn stream (x86-64 only; falls
            ///< back to Threaded elsewhere, see vm/Jit.h)
};

/// "legacy" / "threaded" / "native" -> Engine; nullopt for anything else.
std::optional<Engine> engineByName(std::string_view Name);
const char *engineName(Engine E);

class JitProgram;

/// The simulator. One instance owns one address space; reusable across
/// many calls into the same program.
class Machine {
public:
  Machine(const s1::Program &P, sexpr::SymbolTable &Syms, sexpr::Heap &DecodeHeap);

  struct RunResult {
    bool Ok = false;
    std::string Error;
    uint64_t ResultWord = s1::NilWord;
    /// Result decoded back to an S-expression when representable.
    std::optional<sexpr::Value> Result;
  };

  /// Calls the named compiled function with S-expression arguments.
  RunResult call(const std::string &Name, const std::vector<sexpr::Value> &Args);

  /// Establishes the global value of a special variable.
  bool setGlobalSpecial(const sexpr::Symbol *Name, sexpr::Value V);

  /// Creates a float array in the VM heap; returns its tagged word
  /// (pass it to call() via a pre-encoded argument).
  uint64_t makeArrayF(size_t Dim0, size_t Dim1 = 0);
  double readArrayF(uint64_t ArrayWord, size_t I, size_t J = 0);
  void writeArrayF(uint64_t ArrayWord, size_t I, size_t J, double V);

  /// Encodes an S-expression into VM memory (heap for composites).
  uint64_t encode(sexpr::Value V);
  /// Decodes a word back into an S-expression; nullopt for functions or
  /// malformed words.
  std::optional<sexpr::Value> decode(uint64_t Word, unsigned Depth = 64);

  MachineStats &stats() { return Stats; }
  void resetStats() { Stats = MachineStats(); }

  /// Retires the execution counters into the global stats registry
  /// (`vm.*` counters) so they appear alongside the per-phase compiler
  /// statistics in `--stats` reports. Adds the current counter values;
  /// callers normally publish once, after the runs they care about.
  void publishStats() const;

  /// Selects the dispatch loop. Threaded is the default; Legacy remains
  /// available as the differential baseline (tools expose --engine).
  void setEngine(Engine E) { Eng = E; }
  Engine engine() const { return Eng; }

  /// The pre-decoded form of the program, created on the first threaded
  /// or native run; it decodes each function when first entered. Pass a
  /// shared decode in to amortize decoding across the many short-lived
  /// Machines a fuzzing sweep builds for one Program.
  void setDecodedProgram(std::shared_ptr<const DecodedProgram> DP) {
    Decoded = std::move(DP);
  }
  const std::shared_ptr<const DecodedProgram> &decodedProgram();

  void setFuel(uint64_t F) { Fuel = F; }
  const std::string &output() const { return Out; }
  void clearOutput() { Out.clear(); }

  /// GC schedule for the word heap: a mark-sweep collection is scheduled
  /// every \p N allocations (0 = never, the default) and runs at the next
  /// instruction boundary — never mid-syscall, so both engines collect at
  /// bit-identical points.
  void setGcEvery(uint64_t N) { GcInterval = N; }
  /// Live-heap budget in bytes; exceeding it schedules a collection.
  void setGcBudget(uint64_t Bytes) { GcBudgetWords = Bytes / sizeof(uint64_t); }
  bool gcEnabled() const { return GcInterval != 0 || GcBudgetWords != 0; }
  /// Wall-clock pause time — deliberately not in MachineStats, which only
  /// holds counters the engines must retire bit-identically.
  uint64_t gcPauseNs() const { return GcPauseNs; }
  uint64_t gcPauseNsMax() const { return GcPauseNsMax; }

private:
  struct CatchFrame {
    uint64_t TagWord;
    int Func;
    int Pc; ///< handler pc, in the executing engine's pc units
    uint64_t Sp, Fp, Env;
    size_t SpecDepth;
    size_t CatchDepth;
  };

  // Execution engines.
  bool run(int FuncIndex, std::string &Error);
  bool runLegacy(std::string &Error);
  bool step(std::string &Error);
  /// Cache-line aligned, so that code size changes elsewhere in
  /// Machine.cpp do not move the dispatch loop's alignment: measured on
  /// the `run` workload, such a shift alone moved threaded calls by 3-5%.
  [[gnu::aligned(64)]] bool runThreaded(std::string &Error);
  bool runNative(std::string &Error);
  uint64_t &mem(uint64_t Addr);
  uint64_t effectiveAddress(const s1::Operand &O);
  uint64_t read(const s1::Operand &O);
  void write(const s1::Operand &O, uint64_t V);
  uint64_t xea(const XMem &M);
  uint64_t xread(const XArg &A);
  void xwrite(const XArg &A, uint64_t V);
  /// Executes one cold pre-decoded instruction (PopM, the generic ALU and
  /// compare-branch forms, MovTag/GetTag/Lea, the float unit): 0 = fall
  /// through, 1 = branch taken, -1 = division by zero. The threaded
  /// handlers inline execCold with a constant \p Op; the native tier
  /// calls coldOp.
  int execCold(XOp Op, const XInsn &I);
  int coldOp(const XInsn &I);
  /// The decode stub of CurFunc retired: un-retires it and decodes the
  /// function. Out of line, so that the dispatch loop's counter bumps stay
  /// single read-modify-write instructions (GCC pairs them with these
  /// decrements when it sees both).
  [[gnu::noinline]] void decodeOnEntry(const XInsn &Stub);
  bool trap(std::string &Error, const std::string &Msg);

  // Runtime services. Immediate operands and the resolved catch-handler
  // pc travel as arguments so both engines share one implementation.
  bool doSyscall(s1::Syscall S, int64_t SubCode, int64_t XImm, int HandlerPc,
                 std::string &Error);
  uint64_t pop();
  void push(uint64_t W);
  bool wordEql(uint64_t A, uint64_t B);
  uint64_t allocate(s1::Tag T, uint64_t NWords);
  /// A zero-filled float array, rooted like any other word: only the
  /// host API (makeArrayF) pins its arrays.
  uint64_t allocArrayF(size_t Dim0, size_t Dim1);
  uint64_t boxFlonum(double D);
  uint64_t certify(uint64_t W);
  uint64_t symbolWord(const sexpr::Symbol *S);
  uint64_t trueWord();

  /// Drops every shallow-cache entry whose binding lives at or above
  /// \p NewTop (called before the special stack pops back to NewTop).
  void invalidateSpecCacheAbove(uint64_t NewTop);

  // Word-heap mark-sweep collector. Roots are scanned conservatively
  // (tag + heap-range filter) from registers, the live stack extent, the
  // special stack, the static image, catch frames, symbol cells, and
  // host-pinned objects; tracing inside blocks is directed by the tag
  // recorded at allocation. Non-moving, so no read barriers are needed;
  // freed blocks go on exact-size LIFO free lists, which keeps reused
  // addresses deterministic across engines.
  void collectGarbage();
  void markWord(uint64_t W, std::vector<uint64_t> &Work);
  void growBlockTables(uint64_t Words);
  uint64_t popFree(uint64_t NWords);
  void pushFree(uint64_t Addr, uint64_t NWords);

  const s1::Program &P;
  sexpr::SymbolTable &Syms;
  sexpr::Heap &DecodeHeap;

  AddressSpace Memory{MemoryWords};
  std::array<uint64_t, s1::NumRegs> Regs{};
  int CurFunc = -1;
  int Pc = 0;
  uint64_t HeapTop = HeapBase;
  uint64_t SpecTop = SpecBase; ///< next free pair slot in the binding stack

  /// Native-tier cons fast-path telemetry, bumped from generated code
  /// (vm/Jit.cpp). Deliberately not part of MachineStats: the inline
  /// bump-allocation path only exists in the native engine, so these may
  /// differ across engines while MachineStats stays bit-identical.
  uint64_t JitConsHits = 0;
  uint64_t JitConsMisses = 0;

  std::vector<CatchFrame> Catches;
  std::unordered_map<const sexpr::Symbol *, uint64_t> SymbolAddr;
  std::unordered_map<uint64_t, const sexpr::Symbol *> AddrSymbol;
  std::unordered_map<uint64_t, std::string> StringContents;

  /// §4.4 shallow cache: symbol word -> value-cell address of its topmost
  /// deep binding (or its global cell when unbound on the stack).
  std::unordered_map<uint64_t, uint64_t> SpecCache;
  uint64_t CachedTWord = 0; ///< memoized symbolWord(t); 0 = not yet built

  Engine Eng = Engine::Threaded;
  std::shared_ptr<const DecodedProgram> Decoded;

  // Native tier state (vm/Jit.h). The generated code reaches back into
  // the Machine through JitAccess, which needs the private members above.
  friend struct JitAccess;
  std::shared_ptr<const JitProgram> Jitted;
  const JitProgram *ActiveJit = nullptr;
  std::string NativeError; ///< syscall trap text staged by the JIT shim

  /// Side tables over the word heap, indexed by word offset from HeapBase
  /// and grown with HeapTop (never sized to the whole heap up front: the
  /// fuzzer builds thousands of Machines). Only blocks allocated while
  /// gcEnabled() with at least one word are recorded.
  ///  * StartBits: set where a live block begins. Interior pointers
  ///    resolve by scanning backward to the nearest set bit.
  ///  * MarkBits: set on a block's start bit once marking reaches it;
  ///    the sweep frees `start & ~mark` in ascending address order.
  ///  * BlockHeader: `NWords << 8 | tag` of the block at each start bit;
  ///    the tag decides which words are traced.
  std::vector<uint64_t> StartBits;
  std::vector<uint64_t> MarkBits;
  std::vector<uint32_t> BlockHeader;
  /// Freed blocks, reused LIFO by exact size: each links to the next free
  /// block of its size through its first word (0 ends a list). Heads for
  /// small sizes sit in a flat array; larger sizes are hashed, so a freed
  /// large array adds one entry however many words it has.
  static constexpr uint64_t SmallBlockWords = 64;
  std::array<uint64_t, SmallBlockWords> FreeHead{};
  std::unordered_map<uint64_t, uint64_t> LargeFreeHead;
  /// Words handed to the host (makeArrayF) — permanent roots.
  std::vector<uint64_t> HostPinned;
  uint64_t GcInterval = 0;    ///< collect every N allocations; 0 = never
  uint64_t GcBudgetWords = 0; ///< live-word budget; 0 = unbounded
  uint64_t AllocsSinceGc = 0;
  uint64_t LiveWords = 0;
  bool GcPending = false;
  uint64_t GcPauseNs = 0;
  uint64_t GcPauseNsMax = 0;

  MachineStats Stats;
  uint64_t Fuel = 500'000'000;
  std::string Out;
  bool Halted = false;
};

/// The sentinel stored in a symbol's value cell while it is globally unbound.
constexpr uint64_t UnboundWord = ~0ull;

} // namespace vm
} // namespace s1lisp

#endif // S1LISP_VM_MACHINE_H
