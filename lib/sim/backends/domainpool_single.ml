(* OCaml 4.x fallback backend: no Domain module, so everything runs
   sequentially on the calling thread.  Selected by a dune rule in
   lib/sim/dune; see domainpool.mli for the contract. *)

let available = false

exception Worker_failure of exn

let map ~domains f xs =
  ignore domains;
  match Array.map f xs with
  | r -> r
  | exception e -> raise (Worker_failure e)
