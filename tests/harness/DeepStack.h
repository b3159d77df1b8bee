//===- tests/harness/DeepStack.h - Deep programs on a sized stack -*- C++ -*-===//
//
// The converter bounds the depth of the trees it builds so that every
// later phase's recursive walk fits in an 8 MB stack, the default of a
// Linux main thread and of std::thread. A test of a deep program runs it
// on a thread with exactly that stack, so it checks the bound's design
// point whatever the runner's ulimit. Sanitizer builds spend several
// times the stack per frame (ASan pads every local with red zones), so
// there the thread gets 8x as much.
//
//===----------------------------------------------------------------------===//

#ifndef S1LISP_TESTS_HARNESS_DEEPSTACK_H
#define S1LISP_TESTS_HARNESS_DEEPSTACK_H

#include "gtest/gtest.h"

#include <pthread.h>

#include <cstddef>
#include <functional>

namespace s1lisp {
namespace deepstack {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr size_t FrameFactor = 8;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr size_t FrameFactor = 8;
#else
constexpr size_t FrameFactor = 1;
#endif
#else
constexpr size_t FrameFactor = 1;
#endif

constexpr size_t StackBytes = (size_t(8) << 20) * FrameFactor;

/// Runs \p Fn to completion on a new thread with a StackBytes stack.
inline void run(const std::function<void()> &Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, StackBytes);
  pthread_t Thread;
  auto Body = [](void *P) -> void * {
    (*static_cast<const std::function<void()> *>(P))();
    return nullptr;
  };
  int Err = pthread_create(&Thread, &Attr, Body,
                           const_cast<std::function<void()> *>(&Fn));
  pthread_attr_destroy(&Attr);
  ASSERT_EQ(Err, 0) << "cannot start a thread with a sized stack";
  pthread_join(Thread, nullptr);
}

} // namespace deepstack
} // namespace s1lisp

#endif // S1LISP_TESTS_HARNESS_DEEPSTACK_H
