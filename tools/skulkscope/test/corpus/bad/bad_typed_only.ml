(* corpus: defects that only resolved paths and types reveal — four
   findings that a parser-level lint misses (a renamed module, an
   opened one, float equality between two variables, an array built by
   a literal). *)

module R = Random

let roll () = R.int 6

open Unix

let stamp () = gettimeofday ()
let same_size (a : float) b = a = b
let weights = [| 0.5; 0.25; 0.25 |]
