//===- tests/harness/RenamedTwin.h - A module and its renamed twin -*- C++ -*-===//
//
// Two modules that differ only in how their locals are spelled, for the
// compile cache's contract that a warm answer is a fresh compile's. bump's
// parameter is captured and assigned by a closure, so it lives in a heap
// environment that the listing names, and a rewrite's remark prints it;
// fut binds a local too. Both return 42 from fut.
//
//===----------------------------------------------------------------------===//

#ifndef S1LISP_TESTS_HARNESS_RENAMEDTWIN_H
#define S1LISP_TESTS_HARNESS_RENAMEDTWIN_H

namespace s1lisp {
namespace twin {

inline constexpr const char *Module =
    "(defun bump (counter)\n"
    "  (let ((inc (lambda () (setq counter (+ counter 1)))))\n"
    "    (funcall inc)\n"
    "    (funcall inc)\n"
    "    counter))\n"
    "(defun fut () (let ((start 40)) (bump start)))\n";

inline constexpr const char *Renamed =
    "(defun bump (m)\n"
    "  (let ((step (lambda () (setq m (+ m 1)))))\n"
    "    (funcall step)\n"
    "    (funcall step)\n"
    "    m))\n"
    "(defun fut () (let ((s 40)) (bump s)))\n";

} // namespace twin
} // namespace s1lisp

#endif // S1LISP_TESTS_HARNESS_RENAMEDTWIN_H
