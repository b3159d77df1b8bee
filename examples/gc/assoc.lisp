; Association-list workload, scaled by N.  build-alist conses one pair
; plus one spine cell per entry; probe-sum then walks the alist N times
; with assoc, allocating nothing -- a live-data-heavy shape that makes
; the collector prove long-lived cells stay reachable and mutable.
;
; (alist-workload n) = sum of i*i for i in [0, n)  = n(n-1)(2n-1)/6.
(defun build-alist (n)
  (do ((i 0 (1+ i))
       (acc '() (cons (cons i (* i i)) acc)))
      ((= i n) acc)))

(defun probe-sum (alist n)
  (do ((i 0 (1+ i))
       (s 0 (+ s (cdr (assoc i alist)))))
      ((= i n) s)))

(defun alist-workload (n)
  (probe-sum (build-alist n) n))

(defun main ()
  (alist-workload 64))
