(* A sparse credit row: peer index -> non-zero count.  Under a Zipf
   workload most ISP pairs never exchange mail, so a 10^4-ISP world has
   ~10^8 mostly-zero dense cells but only ~10^5 populated ones; the row
   is a hash table holding exactly the non-zero cells, and every
   deterministic export goes through {!pairs} (sorted, non-zero only)
   so Hashtbl iteration order never leaks into traces, wire bytes or
   snapshots.

   The table is specialised to int keys: the generic [Hashtbl] hashes
   through [caml_hash] and compares through [compare_val], and every
   credit booked on the send and receive paths lands here. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

type t = { n : int; cells : int Int_tbl.t }

let create ~n =
  if n <= 0 then invalid_arg "Audit.Row.create: n must be positive";
  { n; cells = Int_tbl.create 8 }

let check t peer ctx =
  if peer < 0 || peer >= t.n then
    invalid_arg (Printf.sprintf "Audit.Row.%s: peer %d outside 0..%d" ctx peer (t.n - 1))

let get t peer =
  check t peer "get";
  Option.value ~default:0 (Int_tbl.find_opt t.cells peer)

(* Zero cells are removed, not stored: [cardinal] counts populated
   cells and [pairs] never emits a zero, keeping the canonical form. *)
let set t peer v =
  check t peer "set";
  if v = 0 then Int_tbl.remove t.cells peer else Int_tbl.replace t.cells peer v

let add t peer dv =
  check t peer "add";
  if dv <> 0 then begin
    let v = Option.value ~default:0 (Int_tbl.find_opt t.cells peer) + dv in
    if v = 0 then Int_tbl.remove t.cells peer else Int_tbl.replace t.cells peer v
  end

let cardinal t = Int_tbl.length t.cells

let sum t = Int_tbl.fold (fun _ v acc -> acc + v) t.cells 0

(* Unordered — use only for order-insensitive folds (sums, carries). *)
let iter f t = Int_tbl.iter f t.cells

let pairs t =
  let a = Array.make (Int_tbl.length t.cells) (0, 0) in
  let i = ref 0 in
  Int_tbl.iter
    (fun peer v ->
      a.(!i) <- (peer, v);
      incr i)
    t.cells;
  Array.sort (fun (a, _) (b, _) -> compare a b) a;
  a

let to_dense t =
  let a = Array.make t.n 0 in
  Int_tbl.iter (fun peer v -> a.(peer) <- v) t.cells;
  a

let of_pairs ~n ps =
  let t = create ~n in
  Array.iter
    (fun (peer, v) ->
      check t peer "of_pairs";
      if Int_tbl.mem t.cells peer then
        invalid_arg (Printf.sprintf "Audit.Row.of_pairs: duplicate peer %d" peer);
      if v <> 0 then Int_tbl.replace t.cells peer v)
    ps;
  t

let of_dense a =
  let t = create ~n:(Array.length a) in
  Array.iteri (fun peer v -> if v <> 0 then Int_tbl.replace t.cells peer v) a;
  t

let add_row t src =
  if src.n <> t.n then invalid_arg "Audit.Row.add_row: size mismatch";
  Int_tbl.iter (fun peer v -> add t peer v) src.cells

let copy t = { n = t.n; cells = Int_tbl.copy t.cells }
let clear t = Int_tbl.reset t.cells

let equal a b =
  a.n = b.n
  && Int_tbl.length a.cells = Int_tbl.length b.cells
  && Int_tbl.fold
       (fun peer v acc ->
         acc
         && match Int_tbl.find_opt b.cells peer with Some w -> v = w | None -> false)
       a.cells true

(* The canonical sorted-pairs form is also the persisted form, so equal
   rows encode to identical bytes regardless of Hashtbl internals. *)
let encode w t =
  Persist.Codec.W.array
    (Persist.Codec.W.pair Persist.Codec.W.int Persist.Codec.W.int)
    w (pairs t)

let restore r ~n =
  let ps =
    Persist.Codec.R.array
      (Persist.Codec.R.pair Persist.Codec.R.int Persist.Codec.R.int)
      r
  in
  match of_pairs ~n ps with
  | t -> t
  | exception Invalid_argument msg -> Persist.Codec.R.corrupt r msg
