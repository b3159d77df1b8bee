; Append/reverse churn, scaled by N.  Every round copies the whole
; accumulator twice (reverse, then append's prefix copy), so the round's
; input becomes garbage the moment the round ends: live data grows
; linearly while total allocation is quadratic -- churn whose freed
; cells later rounds reuse.
;
; (append-reverse-workload n) = sum of ((i mod n) + 1) over the n*n
; elements of the final accumulator.
(defun iota (n)
  (do ((i n (1- i))
       (acc '() (cons i acc)))
      ((zerop i) acc)))

(defun sum-list (l)
  (do ((cur l (cdr cur))
       (s 0 (+ s (car cur))))
      ((null cur) s)))

(defun append-reverse-workload (n)
  (do ((seg (iota n))
       (i 0 (1+ i))
       (acc '() (append (reverse acc) seg)))
      ((= i n) (sum-list acc))))

(defun main ()
  (append-reverse-workload 12))
