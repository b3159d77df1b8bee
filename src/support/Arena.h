//===- support/Arena.h - Bump allocator for IR objects ----------*- C++ -*-===//
///
/// \file
/// A chunked bump-pointer arena. IR nodes and variables are allocated here
/// and live exactly as long as the owning ir::Function; destructors of
/// allocated objects are run when the arena dies.
///
/// Most node classes are trivially destructible, so the common allocation
/// is a pointer bump; only objects with std::vector members (progn, call,
/// lambda, caseq, progbody, Variable) register a destructor record.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SUPPORT_ARENA_H
#define S1LISP_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace s1lisp {

/// Owns a growing set of objects in bump-allocated chunks and destroys
/// them all at once.
class NodeArena {
public:
  NodeArena() = default;
  NodeArena(const NodeArena &) = delete;
  NodeArena &operator=(const NodeArena &) = delete;
  NodeArena(NodeArena &&O) noexcept { *this = std::move(O); }
  NodeArena &operator=(NodeArena &&O) noexcept {
    if (this != &O) {
      destroyAll();
      Chunks = std::move(O.Chunks);
      Cur = O.Cur;
      End = O.End;
      Dtors = std::move(O.Dtors);
      O.Chunks.clear();
      O.Dtors.clear();
      O.Cur = O.End = nullptr;
    }
    return *this;
  }

  ~NodeArena() { destroyAll(); }

  /// Allocates and constructs a T owned by the arena.
  template <typename T, typename... Args> T *create(Args &&...As) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Ptr = new (Mem) T(std::forward<Args>(As)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Ptr, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Ptr;
  }

private:
  static constexpr size_t ChunkBytes = 64 * 1024;

  struct Owned {
    void *Ptr;
    void (*Dtor)(void *);
  };

  void *allocate(size_t Size, size_t Align) {
    char *P = reinterpret_cast<char *>(
        (reinterpret_cast<uintptr_t>(Cur) + (Align - 1)) & ~(Align - 1));
    if (P + Size > End) {
      // Not zeroed: every object is constructed in place, and a chunk's
      // untouched pages stay untouched.
      size_t Cap = Size + Align > ChunkBytes ? Size + Align : ChunkBytes;
      Chunks.push_back(std::make_unique_for_overwrite<char[]>(Cap));
      Cur = Chunks.back().get();
      End = Cur + Cap;
      P = reinterpret_cast<char *>(
          (reinterpret_cast<uintptr_t>(Cur) + (Align - 1)) & ~(Align - 1));
    }
    Cur = P + Size;
    return P;
  }

  void destroyAll() {
    // Destroy in reverse allocation order.
    for (size_t I = Dtors.size(); I > 0; --I)
      Dtors[I - 1].Dtor(Dtors[I - 1].Ptr);
    Dtors.clear();
    Chunks.clear();
    Cur = End = nullptr;
  }

  std::vector<std::unique_ptr<char[]>> Chunks;
  char *Cur = nullptr;
  char *End = nullptr;
  std::vector<Owned> Dtors; ///< objects with a non-trivial destructor
};

} // namespace s1lisp

#endif // S1LISP_SUPPORT_ARENA_H
