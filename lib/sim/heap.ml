(* Binary min-heap with an index: keys move, values do not.

   Heap order lives in three unboxed arrays indexed by heap position —
   priority (a float array), sequence number and [slot] — and values
   live in a fourth array indexed by slot.  A sift only ever moves the
   (prio, seq, slot) key of a position: float and int stores, with no
   write barrier and no float-array tag check.  A value is written once
   at [push] and cleared once at [pop_exn].

   [slot] is a permutation of [0 .. capacity-1]: positions [< size]
   name the live slots in heap order, positions [>= size] the free
   ones.  [push] therefore takes the free slot at [slot.(size)], and
   [pop_exn] parks the root's slot at the position the last key just
   vacated — no free list.

   Vacated value cells are cleared: [pop_exn] overwrites the popped
   slot with a sentinel, and [grow] fills fresh capacity with the
   sentinel.  Without this the heap retains every popped value — in
   the engine those values are event callbacks closing over world
   state, so an uncleared slot keeps arbitrarily large object graphs
   GC-reachable long after the event fired (fatal at million-user
   scale; see the drained-heap retention regression test in
   test_sim.ml). *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable slot : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* One shared sentinel for the value array.  It is never returned:
   every read of [value] goes through a live slot.  [Obj.magic] on an
   immediate is safe here because ['a value] cells are only read back
   through [slot.(i)] with [i < size], which always names a real ['a]. *)
let sentinel : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () =
  { prio = [||]; seq = [||]; slot = [||]; value = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* At [size = capacity] every slot is live, so the old permutation
   fills positions [< size] and the new slots are free in order. *)
let grow t =
  let capacity = Array.length t.prio in
  if t.size = capacity then begin
    let new_capacity = Stdlib.max 16 (2 * capacity) in
    let prio = Array.make new_capacity 0. in
    let seq = Array.make new_capacity 0 in
    let slot = Array.make new_capacity 0 in
    let value = Array.make new_capacity (sentinel ()) in
    Array.blit t.prio 0 prio 0 t.size;
    Array.blit t.seq 0 seq 0 t.size;
    Array.blit t.slot 0 slot 0 t.size;
    for i = t.size to new_capacity - 1 do
      slot.(i) <- i
    done;
    Array.blit t.value 0 value 0 t.size;
    t.prio <- prio;
    t.seq <- seq;
    t.slot <- slot;
    t.value <- value
  end

(* The sifts move a hole instead of swapping: one key write per level,
   and the moving key is written once where the hole stops.  Every
   array and key parameter is annotated: an unannotated one makes the
   comparisons polymorphic C calls.  Every index is below the capacity
   ([push] has grown the arrays, [pop_exn] stays below the old size),
   so the accesses are unchecked; with bounds checks and
   self-recursion instead of loops a push/pop pair took about twice
   as long in a micro-benchmark. *)

(* Sift the key ([p], [q], [s]) up from the hole at [i]. *)
let sift_up (prio : float array) (seq : int array) (slot : int array)
    (p : float) (q : int) (s : int) (i : int) =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent in
    if p < pp || (p = pp && q < Array.unsafe_get seq parent) then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set seq !i (Array.unsafe_get seq parent);
      Array.unsafe_set slot !i (Array.unsafe_get slot parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set seq !i q;
  Array.unsafe_set slot !i s

(* Sift the key stored at position [size] — just cut off the live
   range — down from the hole at the root, over positions [< size]. *)
let sift_down (prio : float array) (seq : int array) (slot : int array)
    (size : int) =
  let p = Array.unsafe_get prio size in
  let q = Array.unsafe_get seq size in
  let s = Array.unsafe_get slot size in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= size then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < size then begin
          let pl = Array.unsafe_get prio left
          and pr = Array.unsafe_get prio right in
          if pr < pl
             || (pr = pl && Array.unsafe_get seq right < Array.unsafe_get seq left)
          then right
          else left
        end
        else left
      in
      let pc = Array.unsafe_get prio child in
      let qc = Array.unsafe_get seq child in
      if pc < p || (pc = p && qc < q) then begin
        Array.unsafe_set prio !i pc;
        Array.unsafe_set seq !i qc;
        Array.unsafe_set slot !i (Array.unsafe_get slot child);
        i := child
      end
      else continue := false
    end
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set seq !i q;
  Array.unsafe_set slot !i s

let push t ~priority value =
  grow t;
  let s = t.slot.(t.size) in
  t.value.(s) <- value;
  let q = t.next_seq in
  t.next_seq <- q + 1;
  t.size <- t.size + 1;
  sift_up t.prio t.seq t.slot priority q s (t.size - 1)

(* Allocation-free accessors for the engine's step loop: [pop]/[peek]
   box an option and a tuple per event, which is pure garbage on the
   hottest path in the simulator. *)

let min_prio t =
  if t.size = 0 then invalid_arg "Heap.min_prio: empty heap";
  t.prio.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let root = t.slot.(0) in
  let value = t.value.(root) in
  t.value.(root) <- sentinel ();
  let size = t.size - 1 in
  t.size <- size;
  if size > 0 then sift_down t.prio t.seq t.slot size;
  t.slot.(size) <- root;
  value

let pop t =
  if t.size = 0 then None
  else
    let prio = t.prio.(0) in
    Some (prio, pop_exn t)

let peek t =
  if t.size = 0 then None else Some (t.prio.(0), t.value.(t.slot.(0)))

let clear t =
  t.prio <- [||];
  t.seq <- [||];
  t.slot <- [||];
  t.value <- [||];
  t.size <- 0

let entries t =
  let live =
    List.init t.size (fun i -> (t.prio.(i), t.seq.(i), t.value.(t.slot.(i))))
  in
  List.sort
    (fun (pa, sa, _) (pb, sb, _) ->
      if pa < pb || (pa = pb && sa < sb) then -1
      else if pb < pa || (pa = pb && sb < sa) then 1
      else 0)
    live

let next_seq t = t.next_seq

let capacity t = Array.length t.prio
