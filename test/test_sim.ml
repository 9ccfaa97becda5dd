(* Tests for the discrete-event simulation kernel. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.int64 a <> Sim.Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_copy_independent () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.copy a in
  let xa = Sim.Rng.int64 a in
  let xb = Sim.Rng.int64 b in
  Alcotest.(check int64) "copy continues same stream" xa xb;
  ignore (Sim.Rng.int64 a);
  let xa' = Sim.Rng.int64 a and xb' = Sim.Rng.int64 b in
  Alcotest.(check bool) "desynchronised after unequal draws" true (xa' <> xb')

let test_rng_int_bounds () =
  let rng = Sim.Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_rng_int_invalid () =
  let rng = Sim.Rng.create 0 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int rng 0))

let test_rng_unit_float_range () =
  let rng = Sim.Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_mean () =
  let rng = Sim.Rng.create 5 in
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Sim.Stats.Summary.add s (Sim.Rng.unit_float rng)
  done;
  let mean = Sim.Stats.Summary.mean s in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_shuffle_permutation () =
  let rng = Sim.Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_empty () =
  let rng = Sim.Rng.create 0 in
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Sim.Rng.pick rng [||]))

(* Regression for the old [seed lxor tag] sub-stream derivation, which
   had two adversarial failure modes that [Rng.stream] must not:
   choosing seed = tag collapsed the subsystem stream onto [create 0],
   and two seeds differing by [tag1 lxor tag2] swapped the two
   subsystems' streams wholesale. *)
let test_rng_stream_no_seed_tag_collision () =
  let tags = [ 0x3a7e5; 0x8b1e5; 0x5e17e; 0x6fa17; 0xfed19; 0xc1ea7 ] in
  List.iter
    (fun tag ->
      (* seed = tag used to yield create 0's stream *)
      let derived = Sim.Rng.stream ~seed:tag ~tag in
      let zero = Sim.Rng.create 0 in
      Alcotest.(check bool)
        (Printf.sprintf "stream ~seed:%#x ~tag:%#x <> create 0" tag tag)
        true
        (Sim.Rng.int64 derived <> Sim.Rng.int64 zero);
      (* the derived stream must also differ from the root stream of the
         same seed *)
      let derived = Sim.Rng.stream ~seed:tag ~tag in
      let root = Sim.Rng.create tag in
      Alcotest.(check bool) "stream differs from root create"
        true
        (Sim.Rng.int64 derived <> Sim.Rng.int64 root))
    tags

let test_rng_stream_no_swap () =
  (* Under xor derivation, seeds s and s lxor tag1 lxor tag2 made
     subsystem tag1 of one run equal subsystem tag2 of the other. *)
  let tag1 = 0x3a7e5 and tag2 = 0x8b1e5 in
  let s = 0xdeadbeef in
  let s' = s lxor tag1 lxor tag2 in
  let a = Sim.Rng.stream ~seed:s ~tag:tag1 in
  let b = Sim.Rng.stream ~seed:s' ~tag:tag2 in
  Alcotest.(check bool) "no stream swap" true (Sim.Rng.int64 a <> Sim.Rng.int64 b);
  let a = Sim.Rng.stream ~seed:s ~tag:tag2 in
  let b = Sim.Rng.stream ~seed:s' ~tag:tag1 in
  Alcotest.(check bool) "no reverse swap" true (Sim.Rng.int64 a <> Sim.Rng.int64 b)

let test_rng_stream_n_distinct () =
  let seen = Hashtbl.create 64 in
  for n = 0 to 31 do
    let r = Sim.Rng.stream_n ~seed:42 ~tag:0x8b1e5 n in
    let w = Sim.Rng.int64 r in
    Alcotest.(check bool)
      (Printf.sprintf "stream_n %d fresh" n)
      false (Hashtbl.mem seen w);
    Hashtbl.replace seen w ()
  done;
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.stream_n: negative index") (fun () ->
      ignore (Sim.Rng.stream_n ~seed:42 ~tag:0x8b1e5 (-1)))

let test_rng_stream_deterministic () =
  let a = Sim.Rng.stream ~seed:7 ~tag:0x5e17e in
  let b = Sim.Rng.stream ~seed:7 ~tag:0x5e17e in
  for _ = 1 to 16 do
    Alcotest.(check int64) "same derived stream" (Sim.Rng.int64 a)
      (Sim.Rng.int64 b)
  done

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)
(* ------------------------------------------------------------------ *)

let sample_summary n f =
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to n do
    Sim.Stats.Summary.add s (f ())
  done;
  s

let test_dist_bernoulli_extremes () =
  let rng = Sim.Rng.create 1 in
  Alcotest.(check bool) "p=0" false (Sim.Dist.bernoulli rng 0.);
  Alcotest.(check bool) "p=1" true (Sim.Dist.bernoulli rng 1.)

let test_dist_bernoulli_rate () =
  let rng = Sim.Rng.create 2 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Sim.Dist.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_dist_exponential_mean () =
  let rng = Sim.Rng.create 3 in
  let s = sample_summary 20_000 (fun () -> Sim.Dist.exponential rng ~rate:2.) in
  Alcotest.(check bool) "mean ~ 1/rate" true
    (abs_float (Sim.Stats.Summary.mean s -. 0.5) < 0.02);
  Alcotest.(check bool) "all positive" true (Sim.Stats.Summary.min s >= 0.)

let test_dist_normal_moments () =
  let rng = Sim.Rng.create 4 in
  let s =
    sample_summary 20_000 (fun () -> Sim.Dist.normal rng ~mean:10. ~stddev:3.)
  in
  Alcotest.(check bool) "mean" true
    (abs_float (Sim.Stats.Summary.mean s -. 10.) < 0.1);
  Alcotest.(check bool) "stddev" true
    (abs_float (Sim.Stats.Summary.stddev s -. 3.) < 0.1)

let test_dist_poisson_mean () =
  let rng = Sim.Rng.create 5 in
  let s =
    sample_summary 20_000 (fun () -> float_of_int (Sim.Dist.poisson rng ~mean:4.))
  in
  Alcotest.(check bool) "mean ~ 4" true
    (abs_float (Sim.Stats.Summary.mean s -. 4.) < 0.1)

let test_dist_poisson_large_mean () =
  let rng = Sim.Rng.create 6 in
  let s =
    sample_summary 5_000 (fun () -> float_of_int (Sim.Dist.poisson rng ~mean:200.))
  in
  Alcotest.(check bool) "mean ~ 200" true
    (abs_float (Sim.Stats.Summary.mean s -. 200.) < 2.);
  Alcotest.(check bool) "non-negative" true (Sim.Stats.Summary.min s >= 0.)

let test_dist_poisson_zero () =
  let rng = Sim.Rng.create 7 in
  Alcotest.(check int) "mean 0" 0 (Sim.Dist.poisson rng ~mean:0.)

let test_dist_pareto_support () =
  let rng = Sim.Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Sim.Dist.pareto rng ~scale:2. ~shape:1.5 in
    Alcotest.(check bool) ">= scale" true (x >= 2.)
  done

let test_dist_lognormal_positive () =
  let rng = Sim.Rng.create 9 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true
      (Sim.Dist.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

let test_dist_zipf_ranks () =
  let rng = Sim.Rng.create 10 in
  let sample = Sim.Dist.zipf ~n:10 ~s:1.2 in
  let counts = Array.make 11 0 in
  for _ = 1 to 20_000 do
    let k = sample rng in
    Alcotest.(check bool) "rank in 1..10" true (k >= 1 && k <= 10);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 9" true (counts.(2) > counts.(9))

(* The first 10,000 draws at seed 1, pinned: a change to the CDF
   search may make draws cheaper, never different. *)
let draws_digest sample =
  let rng = Sim.Rng.create 1 in
  let b = Buffer.create 60_000 in
  for _ = 1 to 10_000 do
    Buffer.add_string b (string_of_int (sample rng));
    Buffer.add_char b ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_dist_draws_pinned () =
  Alcotest.(check string)
    "zipf n=100000 s=1.1" "83998fa87349ee66aeb7ba66c847bfea"
    (draws_digest (Sim.Dist.zipf ~n:100_000 ~s:1.1));
  Alcotest.(check string)
    "categorical" "1aa838a26e109e3894015acf871ad7dd"
    (draws_digest (Sim.Dist.categorical ~weights:[| 0.; 1.; 3.; 0.; 2.5; 0.5 |]))

let test_dist_categorical () =
  let rng = Sim.Rng.create 11 in
  let sample = Sim.Dist.categorical ~weights:[| 0.; 1.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = sample rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(0);
  Alcotest.(check bool) "3x weight ~ 3x draws" true
    (float_of_int counts.(2) /. float_of_int counts.(1) > 2.5)

(* The shared tie-break rule for CDF-walking samplers ([zipf] and
   [categorical]): select the first bucket whose cumulative weight
   STRICTLY exceeds u.  Intervals are half-open, so a u landing exactly
   on a bucket edge belongs to the next bucket, zero-weight buckets
   (whose edge equals their predecessor's) are never selected, and
   u >= total clamps to the last index. *)
let test_dist_first_over_boundaries () =
  let fo = Sim.Dist.Internal.first_over in
  let cdf = [| 0.2; 0.2; 0.7; 1.0 |] in
  (* bucket 1 has zero weight *)
  Alcotest.(check int) "u=0 picks first positive bucket" 0 (fo cdf 0.);
  Alcotest.(check int) "interior of bucket 0" 0 (fo cdf 0.1);
  Alcotest.(check int) "exact edge goes to the next bucket" 2 (fo cdf 0.2);
  Alcotest.(check int) "zero-weight bucket never selected" 2 (fo cdf 0.3);
  Alcotest.(check int) "edge of bucket 2" 3 (fo cdf 0.7);
  Alcotest.(check int) "just below total" 3 (fo cdf 0.999);
  Alcotest.(check int) "u = total clamps to last" 3 (fo cdf 1.0);
  Alcotest.(check int) "u > total clamps to last" 3 (fo cdf 2.0);
  (* A leading zero-weight bucket is skipped even at u = 0. *)
  Alcotest.(check int) "leading zero bucket skipped" 1 (fo [| 0.; 1. |] 0.)

let test_dist_first_over_prop =
  QCheck.Test.make ~name:"first_over: first bucket strictly exceeding u"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (float_bound_inclusive 10.))
        (float_bound_inclusive 1.))
    (fun (ws, uf) ->
      QCheck.assume (ws <> []);
      let arr = Array.of_list (List.map abs_float ws) in
      let n = Array.length arr in
      let cdf = Array.make n 0. in
      let acc = ref 0. in
      Array.iteri
        (fun i w ->
          acc := !acc +. w;
          cdf.(i) <- !acc)
        arr;
      let u = uf *. !acc in
      let i = Sim.Dist.Internal.first_over cdf u in
      0 <= i && i < n
      && (cdf.(i) > u || cdf.(n - 1) <= u)
      && (i = 0 || cdf.(i - 1) <= u))

(* The samplers built on first_over stay in range even at boundary
   draws (the rule above guarantees it; this pins the composition). *)
let test_dist_samplers_in_range =
  QCheck.Test.make ~name:"zipf/categorical stay in range" ~count:300
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, n_raw) ->
      let n = 1 + (n_raw mod 20) in
      let rng = Sim.Rng.create seed in
      let zipf = Sim.Dist.zipf ~n ~s:1.2 in
      let weights = Array.init n (fun i -> if i mod 3 = 0 then 0. else 1.) in
      let weights = if n = 1 then [| 1. |] else weights in
      let cat = Sim.Dist.categorical ~weights in
      let ok = ref true in
      for _ = 1 to 50 do
        let r = zipf rng in
        if r < 1 || r > n then ok := false;
        let c = cat rng in
        if c < 0 || c >= n then ok := false;
        if weights.(c) = 0. then ok := false
      done;
      !ok)

(* The guide table must be exact: the guided search equals the full
   [first_over] for every [u], including [u] exactly on a CDF value,
   exactly on a guide-bucket edge ([j * total / n]) and at [total].
   Weight vectors mix zeros (repeated CDF values) with small and large
   weights (many entries per bucket, and buckets with none). *)
let test_dist_guided_matches_first_over =
  QCheck.Test.make ~name:"guided search = first_over over the whole CDF"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40)
           (oneof [ always 0.; float_bound_inclusive 1e-3; float_bound_inclusive 10. ]))
        (list_of_size Gen.(0 -- 20) (float_bound_inclusive 1.)))
    (fun (ws, fracs) ->
      let n = List.length ws in
      let cdf = Array.make n 0. in
      let acc = ref 0. in
      List.iteri
        (fun i w ->
          acc := !acc +. abs_float w;
          cdf.(i) <- !acc)
        ws;
      let total = !acc in
      let guided = Sim.Dist.Internal.guided_first_over cdf in
      let same u = guided u = Sim.Dist.Internal.first_over cdf u in
      let edges = List.init (n + 1) (fun j -> float_of_int j *. total /. float_of_int n) in
      let interior = List.map (fun f -> f *. total) fracs in
      List.for_all same (Array.to_list cdf)
      && List.for_all same edges
      && List.for_all same interior
      && List.for_all same [ 0.; total; Float.pred total; Float.succ total ])

let test_dist_geometric () =
  let rng = Sim.Rng.create 12 in
  Alcotest.(check int) "p=1 always 0" 0 (Sim.Dist.geometric rng ~p:1.);
  let s =
    sample_summary 20_000 (fun () ->
        float_of_int (Sim.Dist.geometric rng ~p:0.25))
  in
  (* mean of failures-before-success is (1-p)/p = 3 *)
  Alcotest.(check bool) "mean ~ 3" true
    (abs_float (Sim.Stats.Summary.mean s -. 3.) < 0.1)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  List.iter (fun p -> Sim.Heap.push h ~priority:p p) [ 5.; 1.; 3.; 2.; 4. ];
  let rec drain acc =
    match Sim.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] (drain [])

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h ~priority:1. v) [ "a"; "b"; "c" ];
  let next () = match Sim.Heap.pop h with Some (_, v) -> v | None -> "?" in
  let first = next () in
  let second = next () in
  let third = next () in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_heap_random_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun priorities ->
      let h = Sim.Heap.create () in
      List.iter (fun p -> Sim.Heap.push h ~priority:p p) priorities;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare priorities)

let test_heap_peek () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "peek empty" true (Sim.Heap.peek h = None);
  Sim.Heap.push h ~priority:2. "x";
  Sim.Heap.push h ~priority:1. "y";
  (match Sim.Heap.peek h with
  | Some (p, v) ->
      check_float "peek priority" 1. p;
      Alcotest.(check string) "peek value" "y" v
  | None -> Alcotest.fail "expected Some");
  Alcotest.(check int) "peek does not remove" 2 (Sim.Heap.length h)

let test_heap_unboxed_accessors () =
  let h = Sim.Heap.create () in
  Alcotest.check_raises "min_prio on empty"
    (Invalid_argument "Heap.min_prio: empty heap") (fun () ->
      ignore (Sim.Heap.min_prio h));
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Sim.Heap.pop_exn h));
  Sim.Heap.push h ~priority:2. "x";
  Sim.Heap.push h ~priority:1. "y";
  check_float "min_prio" 1. (Sim.Heap.min_prio h);
  Alcotest.(check string) "pop_exn order" "y" (Sim.Heap.pop_exn h);
  check_float "min_prio after pop" 2. (Sim.Heap.min_prio h);
  Alcotest.(check string) "pop_exn drains" "x" (Sim.Heap.pop_exn h);
  Alcotest.(check int) "empty" 0 (Sim.Heap.length h)

(* Regression for the event-heap space leak: popped value slots must be
   cleared, or a drained heap pins every callback it ever held (each of
   which can close over megabytes of world state).  The original [pop]
   left the vacated slot in place and [grow] filled fresh capacity with
   copies of the pushed entry. *)
let test_heap_releases_popped_values () =
  let h = Sim.Heap.create () in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  (* 64 pushes force several capacity doublings, exercising [grow]'s
     slot initialisation as well as [pop]'s clearing. *)
  for i = 0 to 63 do
    let big = Array.make 10_000 i in
    Sim.Heap.push h ~priority:(float_of_int i) (fun () -> ignore big.(0))
  done;
  while Sim.Heap.pop h <> None do () done;
  Gc.full_major ();
  let retained = (Gc.stat ()).Gc.live_words - live0 in
  (* A leak would retain 64 x ~10_001 words (~640k); the drained heap
     itself (three arrays of capacity 64) is well under 10k. *)
  Alcotest.(check bool)
    (Printf.sprintf "drained heap retains nothing (%d words)" retained)
    true
    (retained < 100_000);
  Alcotest.(check bool) "capacity kept for reuse" true (Sim.Heap.capacity h >= 64)

(* The heap as it was before the index heap, kept verbatim as the
   reference the index heap must pop identically to. *)
module Ref_heap = struct
  type 'a t = {
    mutable prio : float array;
    mutable seq : int array;
    mutable value : 'a array;
    mutable size : int;
    mutable next_seq : int;
  }

  let sentinel : 'a. unit -> 'a = fun () -> Obj.magic 0

  let create () =
    { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0 }

  let length t = t.size

  let less t i j =
    t.prio.(i) < t.prio.(j)
    || (t.prio.(i) = t.prio.(j) && t.seq.(i) < t.seq.(j))

  let swap t i j =
    let p = t.prio.(i) in
    t.prio.(i) <- t.prio.(j);
    t.prio.(j) <- p;
    let s = t.seq.(i) in
    t.seq.(i) <- t.seq.(j);
    t.seq.(j) <- s;
    let v = t.value.(i) in
    t.value.(i) <- t.value.(j);
    t.value.(j) <- v

  let grow t =
    let capacity = Array.length t.prio in
    if t.size = capacity then begin
      let new_capacity = Stdlib.max 16 (2 * capacity) in
      let prio = Array.make new_capacity 0. in
      let seq = Array.make new_capacity 0 in
      let value = Array.make new_capacity (sentinel ()) in
      Array.blit t.prio 0 prio 0 t.size;
      Array.blit t.seq 0 seq 0 t.size;
      Array.blit t.value 0 value 0 t.size;
      t.prio <- prio;
      t.seq <- seq;
      t.value <- value
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 in
    let right = left + 1 in
    let smallest = ref i in
    if left < t.size && less t left !smallest then smallest := left;
    if right < t.size && less t right !smallest then smallest := right;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t ~priority value =
    grow t;
    let i = t.size in
    t.prio.(i) <- priority;
    t.seq.(i) <- t.next_seq;
    t.value.(i) <- value;
    t.next_seq <- t.next_seq + 1;
    t.size <- t.size + 1;
    sift_up t i

  let pop_exn t =
    if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
    let value = t.value.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.prio.(0) <- t.prio.(t.size);
      t.seq.(0) <- t.seq.(t.size);
      t.value.(0) <- t.value.(t.size);
      t.value.(t.size) <- sentinel ();
      sift_down t 0
    end
    else t.value.(0) <- sentinel ();
    value

  let pop t =
    if t.size = 0 then None
    else
      let prio = t.prio.(0) in
      Some (prio, pop_exn t)

  let clear t =
    t.prio <- [||];
    t.seq <- [||];
    t.value <- [||];
    t.size <- 0

  let entries t =
    let live = List.init t.size (fun i -> (t.prio.(i), t.seq.(i), t.value.(i))) in
    List.sort
      (fun (pa, sa, _) (pb, sb, _) ->
        if pa < pb || (pa = pb && sa < sb) then -1
        else if pb < pa || (pa = pb && sb < sa) then 1
        else 0)
      live

  let next_seq t = t.next_seq
end

(* Random push/pop interleavings over few distinct priorities (many
   ties, so the sequence tie-break decides most pops), with an
   occasional [clear]: every pop, the queued [entries], [length] and
   [next_seq] must match the reference heap exactly. *)
let test_heap_matches_reference =
  QCheck.Test.make ~name:"index heap pops exactly what the reference pops"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (pair (int_bound 20) (int_bound 5)))
    (fun ops ->
      let h = Sim.Heap.create () and r = Ref_heap.create () in
      let ok = ref true in
      List.iteri
        (fun v (op, p) ->
          if op < 12 then begin
            let priority = float_of_int p in
            Sim.Heap.push h ~priority v;
            Ref_heap.push r ~priority v
          end
          else if op < 20 then (if Sim.Heap.pop h <> Ref_heap.pop r then ok := false)
          else begin
            Sim.Heap.clear h;
            Ref_heap.clear r
          end;
          if Sim.Heap.length h <> Ref_heap.length r then ok := false)
        ops;
      !ok
      && Sim.Heap.entries h = Ref_heap.entries r
      && Sim.Heap.next_seq h = Ref_heap.next_seq r
      &&
      let rec drain () =
        match (Sim.Heap.pop h, Ref_heap.pop r) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

(* Once grown, a push/pop cycle allocates nothing: keys are unboxed
   array stores and values never move.  The priorities are boxed up
   front so the loop itself allocates nothing either. *)
let test_heap_steady_state_allocates_nothing () =
  let h = Sim.Heap.create () in
  let keys = Array.init 97 (fun i -> Some (float_of_int (i mod 13))) in
  let push i =
    match keys.(i mod 97) with
    | Some priority -> Sim.Heap.push h ~priority i
    | None -> ()
  in
  for i = 0 to 999 do
    push i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    push i;
    ignore (Sys.opaque_identity (Sim.Heap.pop_exn h))
  done;
  let words = Gc.minor_words () -. before in
  (* The slack covers the boxed floats of the measurement itself. *)
  if words > 16. then
    Alcotest.failf "10^4 push/pop cycles allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Sim.Bitset.create () in
  Alcotest.(check bool) "fresh set empty" false (Sim.Bitset.mem b 0);
  Alcotest.(check int) "fresh cardinal" 0 (Sim.Bitset.cardinal b);
  (* Straddle word boundaries (Sys.int_size = 63 on 64-bit). *)
  let ids = [ 0; 1; 62; 63; 64; 126; 127; 1000 ] in
  List.iter (Sim.Bitset.set b) ids;
  List.iter
    (fun i -> Alcotest.(check bool) (string_of_int i) true (Sim.Bitset.mem b i))
    ids;
  Alcotest.(check bool) "absent id" false (Sim.Bitset.mem b 500);
  Alcotest.(check bool) "beyond capacity" false (Sim.Bitset.mem b 1_000_000);
  Alcotest.(check bool) "negative absent" false (Sim.Bitset.mem b (-1));
  Alcotest.(check int) "cardinal" (List.length ids) (Sim.Bitset.cardinal b);
  Alcotest.(check (list int)) "elements ascending" ids (Sim.Bitset.elements b);
  Sim.Bitset.unset b 63;
  Alcotest.(check bool) "unset removes" false (Sim.Bitset.mem b 63);
  Sim.Bitset.unset b 2_000_000;
  (* out of range: no-op *)
  Sim.Bitset.unset b (-5);
  (* negative: no-op *)
  Alcotest.(check int) "cardinal after unset" (List.length ids - 1)
    (Sim.Bitset.cardinal b);
  Alcotest.check_raises "negative set rejected"
    (Invalid_argument "Bitset.set: negative index") (fun () ->
      Sim.Bitset.set b (-1));
  Sim.Bitset.clear b;
  Alcotest.(check int) "clear empties" 0 (Sim.Bitset.cardinal b);
  Alcotest.(check (list int)) "clear leaves no elements" [] (Sim.Bitset.elements b)

let test_bitset_iter_matches_elements =
  QCheck.Test.make ~name:"bitset iter/elements agree and ascend" ~count:200
    QCheck.(list (int_bound 300))
    (fun ids ->
      let b = Sim.Bitset.create () in
      List.iter (Sim.Bitset.set b) ids;
      let seen = ref [] in
      Sim.Bitset.iter (fun i -> seen := i :: !seen) b;
      let via_iter = List.rev !seen in
      let expected = List.sort_uniq compare ids in
      via_iter = expected
      && Sim.Bitset.elements b = expected
      && Sim.Bitset.cardinal b = List.length expected)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_runs_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.Engine.schedule e ~at:3. (note "c"));
  ignore (Sim.Engine.schedule e ~at:1. (note "a"));
  ignore (Sim.Engine.schedule e ~at:2. (note "b"));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3. (Sim.Engine.now e)

let test_engine_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:1. (fun () -> log := "first" :: !log));
  ignore (Sim.Engine.schedule e ~at:1. (fun () -> log := "second" :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "fifo" [ "first"; "second" ] (List.rev !log)

let test_engine_schedule_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~at:5. (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule: time is in the past") (fun () ->
      ignore (Sim.Engine.schedule e ~at:1. (fun () -> ())))

(* A NaN time has no place in the heap's strict (priority, sequence)
   order, so every entry point rejects it with its usual message and
   leaves the queue untouched. *)
let test_engine_nan_rejected () =
  let e = Sim.Engine.create () in
  let noop () = () in
  Alcotest.check_raises "schedule at NaN"
    (Invalid_argument "Engine.schedule: time is in the past") (fun () ->
      ignore (Sim.Engine.schedule e ~at:Float.nan noop));
  Alcotest.check_raises "schedule_after NaN"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Sim.Engine.schedule_after e ~delay:Float.nan noop));
  Alcotest.check_raises "every with NaN period"
    (Invalid_argument "Engine.every: period must be positive") (fun () ->
      ignore (Sim.Engine.every e ~period:Float.nan noop));
  Alcotest.check_raises "every with NaN start"
    (Invalid_argument "Engine.every: start is in the past") (fun () ->
      ignore (Sim.Engine.every e ~start:Float.nan ~period:1. noop));
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~at:1. (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  ignore (Sim.Engine.schedule e ~at:1. (fun () -> incr count));
  ignore (Sim.Engine.schedule e ~at:10. (fun () -> incr count));
  Sim.Engine.run ~until:5. e;
  Alcotest.(check int) "only first fired" 1 !count;
  check_float "clock advanced to horizon" 5. (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "second fires later" 2 !count

let test_engine_every () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  let h =
    Sim.Engine.every e ~period:2. (fun () -> times := Sim.Engine.now e :: !times)
  in
  Sim.Engine.run ~until:7. e;
  Alcotest.(check (list (float 1e-9))) "periodic times" [ 2.; 4.; 6. ]
    (List.rev !times);
  Sim.Engine.cancel e h;
  Sim.Engine.run ~until:20. e;
  Alcotest.(check int) "no more after cancel" 3 (List.length !times)

let test_engine_pending_vs_live () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let h1 = Sim.Engine.schedule e ~at:1. (fun () -> incr fired) in
  ignore (Sim.Engine.schedule e ~at:2. (fun () -> incr fired));
  ignore (Sim.Engine.schedule e ~at:3. (fun () -> incr fired));
  Alcotest.(check int) "pending counts all" 3 (Sim.Engine.pending e);
  Alcotest.(check int) "live counts all" 3 (Sim.Engine.live e);
  Sim.Engine.cancel e h1;
  (* Cancellation is lazy: the stub stays queued but is no longer live. *)
  Alcotest.(check int) "stub still queued" 3 (Sim.Engine.pending e);
  Alcotest.(check int) "live excludes stub" 2 (Sim.Engine.live e);
  Sim.Engine.cancel e h1;
  Alcotest.(check int) "double cancel is a no-op" 2 (Sim.Engine.live e);
  (* The first step drains the stub without running a callback. *)
  Alcotest.(check bool) "step drains stub" true (Sim.Engine.step e);
  Alcotest.(check int) "no callback ran" 0 !fired;
  Alcotest.(check int) "nothing fired" 0 (Sim.Engine.events_fired e);
  Alcotest.(check int) "stub gone" 2 (Sim.Engine.pending e);
  Alcotest.(check int) "live agrees once drained" 2 (Sim.Engine.live e);
  Alcotest.(check bool) "step runs live event" true (Sim.Engine.step e);
  Alcotest.(check int) "one callback ran" 1 !fired;
  Alcotest.(check int) "fired count" 1 (Sim.Engine.events_fired e);
  Sim.Engine.run e;
  Alcotest.(check int) "rest fired" 2 !fired;
  Alcotest.(check int) "queue empty" 0 (Sim.Engine.pending e);
  Alcotest.(check int) "no live events left" 0 (Sim.Engine.live e)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~at:1. (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.Engine.schedule_after e ~delay:1. (fun () ->
                log := "inner" :: !log))));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "final clock" 2. (Sim.Engine.now e)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)


(* The monitor's [wall] is the callback's elapsed time on the monotonic
   clock: a callback that spins for 2 ms of that clock reports at least
   2 ms, and an empty one reports a small non-negative duration.  A
   callback that sleeps 3 ms uses almost no CPU, so it tells elapsed
   time from process CPU time ([Sys.time]). *)
let test_engine_monitor_wall () =
  let e = Sim.Engine.create () in
  let walls = ref [] in
  Sim.Engine.set_monitor e (Some (fun ~id:_ ~at:_ ~wall -> walls := wall :: !walls));
  ignore
    (Sim.Engine.schedule e ~at:1. (fun () ->
         let start = Monotonic_clock.now () in
         while Int64.sub (Monotonic_clock.now ()) start < 2_000_000L do
           ()
         done));
  ignore (Sim.Engine.schedule e ~at:2. (fun () -> ()));
  ignore (Sim.Engine.schedule e ~at:3. (fun () -> Unix.sleepf 3e-3));
  Sim.Engine.run e;
  match List.rev !walls with
  | [ spin; noop; sleep ] ->
      if not (spin >= 2e-3) then Alcotest.failf "spinning callback: wall %g < 2e-3" spin;
      if not (noop >= 0. && noop < 2e-3) then
        Alcotest.failf "empty callback: wall %g outside [0, 2e-3)" noop;
      if not (sleep >= 3e-3) then Alcotest.failf "sleeping callback: wall %g < 3e-3" sleep
  | walls -> Alcotest.failf "%d monitor calls, expected 3" (List.length walls)

let test_summary_basic () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Sim.Stats.Summary.count s);
  check_float "mean" 2.5 (Sim.Stats.Summary.mean s);
  check_float "total" 10. (Sim.Stats.Summary.total s);
  check_float "min" 1. (Sim.Stats.Summary.min s);
  check_float "max" 4. (Sim.Stats.Summary.max s);
  (* sample variance of 1..4 is 5/3 *)
  check_float "variance" (5. /. 3.) (Sim.Stats.Summary.variance s)

let test_summary_empty () =
  let s = Sim.Stats.Summary.create () in
  check_float "mean of empty" 0. (Sim.Stats.Summary.mean s);
  check_float "variance of empty" 0. (Sim.Stats.Summary.variance s);
  (* min/max of an empty summary are documented as 0., never nan (a
     nan would poison any table arithmetic built on them). *)
  check_float "min of empty" 0. (Sim.Stats.Summary.min s);
  check_float "max of empty" 0. (Sim.Stats.Summary.max s)

let test_summary_merge =
  QCheck.Test.make ~name:"summary merge equals concatenation" ~count:200
    QCheck.(
      pair (list (float_bound_inclusive 100.)) (list (float_bound_inclusive 100.)))
    (fun (xs, ys) ->
      let open Sim.Stats in
      let a = Summary.create ()
      and b = Summary.create ()
      and c = Summary.create () in
      List.iter (Summary.add a) xs;
      List.iter (Summary.add b) ys;
      List.iter (Summary.add c) (xs @ ys);
      let m = Summary.merge a b in
      let close x y = abs_float (x -. y) < 1e-6 *. (1. +. abs_float x) in
      Summary.count m = Summary.count c
      && close (Summary.mean m) (Summary.mean c)
      && close (Summary.variance m) (Summary.variance c))

let test_summary_merge_empty () =
  let open Sim.Stats in
  let empty () = Summary.create () in
  let m = Summary.merge (empty ()) (empty ()) in
  Alcotest.(check int) "empty+empty count" 0 (Summary.count m);
  check_float "empty+empty mean" 0. (Summary.mean m);
  check_float "empty+empty variance" 0. (Summary.variance m);
  let s = empty () in
  List.iter (Summary.add s) [ 2.; 4.; 6. ];
  let l = Summary.merge (empty ()) s in
  let r = Summary.merge s (empty ()) in
  List.iter
    (fun m ->
      Alcotest.(check int) "count preserved" 3 (Summary.count m);
      check_float "mean preserved" 4. (Summary.mean m);
      check_float "variance preserved" 4. (Summary.variance m);
      check_float "min preserved" 2. (Summary.min m);
      check_float "max preserved" 6. (Summary.max m))
    [ l; r ]

let test_summary_single_element () =
  let open Sim.Stats in
  let s = Summary.create () in
  Summary.add s 5.;
  check_float "single mean" 5. (Summary.mean s);
  check_float "single variance" 0. (Summary.variance s);
  check_float "single stddev" 0. (Summary.stddev s);
  check_float "single min" 5. (Summary.min s);
  check_float "single max" 5. (Summary.max s);
  (* Merging two singletons must produce the exact two-sample moments:
     the n=1 branch of the merge is where naive pooling formulas
     divide by zero. *)
  let t = Summary.create () in
  Summary.add t 9.;
  let m = Summary.merge s t in
  Alcotest.(check int) "merged count" 2 (Summary.count m);
  check_float "merged mean" 7. (Summary.mean m);
  check_float "merged variance" 8. (Summary.variance m)

let test_histogram_quantile_saturated () =
  (* Every observation below the range: all quantiles clamp to lo. *)
  let h = Sim.Stats.Histogram.create ~lo:10. ~hi:20. ~bins:5 in
  List.iter (Sim.Stats.Histogram.add h) [ 0.; 1.; 2. ];
  Alcotest.(check int) "all underflow" 3 (Sim.Stats.Histogram.underflow h);
  List.iter
    (fun q -> check_float "underflow clamps to lo" 10. (Sim.Stats.Histogram.quantile h q))
    [ 0.; 0.5; 0.99; 1. ];
  (* Every observation above the range: positive quantiles clamp to hi. *)
  let h = Sim.Stats.Histogram.create ~lo:10. ~hi:20. ~bins:5 in
  List.iter (Sim.Stats.Histogram.add h) [ 30.; 40.; 50. ];
  Alcotest.(check int) "all overflow" 3 (Sim.Stats.Histogram.overflow h);
  List.iter
    (fun q -> check_float "overflow clamps to hi" 20. (Sim.Stats.Histogram.quantile h q))
    [ 0.25; 0.5; 1. ]

let test_histogram_buckets () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Sim.Stats.Histogram.add h) [ -1.; 0.; 0.5; 5.; 9.99; 10.; 42. ];
  Alcotest.(check int) "underflow" 1 (Sim.Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Sim.Stats.Histogram.overflow h);
  Alcotest.(check int) "bucket 0" 2 (Sim.Stats.Histogram.bucket h 0);
  Alcotest.(check int) "bucket 5" 1 (Sim.Stats.Histogram.bucket h 5);
  Alcotest.(check int) "bucket 9" 1 (Sim.Stats.Histogram.bucket h 9);
  Alcotest.(check int) "count" 7 (Sim.Stats.Histogram.count h)

let test_histogram_quantile () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:100. ~bins:100 in
  for i = 0 to 99 do
    Sim.Stats.Histogram.add h (float_of_int i +. 0.5)
  done;
  let p50 = Sim.Stats.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "median near 50" true (abs_float (p50 -. 50.) < 2.)

let test_histogram_quantile_empty () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  Alcotest.(check bool) "nan when empty" true
    (Float.is_nan (Sim.Stats.Histogram.quantile h 0.5))

let test_series () =
  let s = Sim.Stats.Series.create "balance" in
  Sim.Stats.Series.record s ~time:1. 10.;
  Sim.Stats.Series.record s ~time:2. 20.;
  Alcotest.(check string) "name" "balance" (Sim.Stats.Series.name s);
  Alcotest.(check int) "length" 2 (Sim.Stats.Series.length s);
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "order"
    [ (1., 10.); (2., 20.) ]
    (Sim.Stats.Series.to_list s);
  match Sim.Stats.Series.last s with
  | Some (t, v) ->
      check_float "last time" 2. t;
      check_float "last value" 20. v
  | None -> Alcotest.fail "expected last sample"

let test_counter () =
  let c = Sim.Stats.Counter.create "emails" in
  Sim.Stats.Counter.incr c;
  Sim.Stats.Counter.incr ~by:5 c;
  Alcotest.(check int) "value" 6 (Sim.Stats.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_rows () =
  let t = Sim.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Sim.Table.add_row t [ "1"; "2" ];
  Sim.Table.add_row t [ "3"; "4" ];
  Alcotest.(check (list (list string)))
    "rows in order"
    [ [ "1"; "2" ]; [ "3"; "4" ] ]
    (Sim.Table.rows t)

let test_table_arity () =
  let t = Sim.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.(check bool) "arity mismatch raises" true
    (try
       Sim.Table.add_row t [ "1" ];
       false
     with Invalid_argument _ -> true)

let test_table_cells () =
  Alcotest.(check string) "pct" "12.50%" (Sim.Table.cell_pct 0.125);
  Alcotest.(check string) "money" "$3.50" (Sim.Table.cell_money 3.5);
  Alcotest.(check string) "int" "42" (Sim.Table.cell_int 42)

let contains_line s line = List.mem line (String.split_on_char '\n' s)

let test_table_render () =
  let t = Sim.Table.create ~title:"demo" ~columns:[ "col"; "x" ] in
  Sim.Table.add_row t [ "row"; "1" ];
  let s = Format.asprintf "%a" Sim.Table.pp t in
  Alcotest.(check bool) "title present" true (contains_line s "== demo ==");
  Alcotest.(check bool) "contains row" true (contains_line s "row  1")

(* ------------------------------------------------------------------ *)
(* Fault mesh                                                          *)
(* ------------------------------------------------------------------ *)

let test_mesh_trivial_is_free () =
  let engine = Sim.Engine.create ~seed:1 () in
  let mesh = Sim.Fault.Mesh.create ~n_nodes:3 engine (Sim.Rng.create 2) in
  Alcotest.(check bool) "trivial" true (Sim.Fault.Mesh.trivial mesh);
  (match Sim.Fault.Mesh.attempt mesh ~src:0 ~dst:1 with
  | `Deliver -> ()
  | `Delayed _ | `Lost -> Alcotest.fail "trivial mesh must deliver");
  (* The fast path returns before touching any counter. *)
  Alcotest.(check int) "no attempts counted" 0 (Sim.Fault.Mesh.attempts mesh)

let test_mesh_link_override () =
  let engine = Sim.Engine.create ~seed:1 () in
  let mesh =
    Sim.Fault.Mesh.create
      ~links:[ ((0, 2), Sim.Fault.plan ~drop:1.0 ()) ]
      ~n_nodes:3 engine (Sim.Rng.create 2)
  in
  Alcotest.(check bool) "not trivial" false (Sim.Fault.Mesh.trivial mesh);
  (match Sim.Fault.Mesh.attempt mesh ~src:0 ~dst:2 with
  | `Lost -> ()
  | `Deliver | `Delayed _ -> Alcotest.fail "overridden link must drop");
  (* The override is directed and scoped to its pair. *)
  (match Sim.Fault.Mesh.attempt mesh ~src:2 ~dst:0 with
  | `Deliver -> ()
  | `Lost | `Delayed _ -> Alcotest.fail "reverse link must deliver");
  (match Sim.Fault.Mesh.attempt mesh ~src:0 ~dst:1 with
  | `Deliver -> ()
  | `Lost | `Delayed _ -> Alcotest.fail "other links must deliver");
  Alcotest.(check int) "one link drop" 1 (Sim.Fault.Mesh.link_dropped mesh);
  Alcotest.(check int) "two delivered" 2 (Sim.Fault.Mesh.delivered mesh)

(* The partition contract, exactly: over an otherwise reliable mesh, an
   attempt is lost iff it crosses groups inside the window — never a
   same-group pair, never outside the window — and the counters account
   for every probe. *)
let mesh_partition_exact =
  QCheck.Test.make ~name:"fault mesh: partitions sever exactly cross-group pairs"
    ~count:100
    QCheck.(
      triple (int_range 2 6)
        (pair (float_bound_inclusive 500.) (float_bound_inclusive 500.))
        (small_list (triple (float_bound_inclusive 1000.) small_nat small_nat)))
    (fun (n_nodes, (w1, w2), probes) ->
      let start = Float.min w1 w2 and stop = Float.max w1 w2 in
      let groups = Array.init n_nodes (fun i -> i mod 2) in
      let engine = Sim.Engine.create ~seed:7 () in
      let mesh =
        Sim.Fault.Mesh.create
          ~partitions:[ Sim.Fault.Mesh.partition ~start ~stop ~groups ]
          ~n_nodes engine (Sim.Rng.create 11)
      in
      let expected_lost = ref 0 in
      let probed = ref 0 in
      let ok = ref true in
      List.iter
        (fun (time, a, b) ->
          let src = a mod n_nodes and dst = b mod n_nodes in
          if src <> dst then begin
            incr probed;
            ignore
              (Sim.Engine.schedule_after engine ~delay:time (fun () ->
                   let cross =
                     groups.(src) <> groups.(dst) && time >= start && time < stop
                   in
                   if cross then incr expected_lost;
                   match Sim.Fault.Mesh.attempt mesh ~src ~dst with
                   | `Lost -> if not cross then ok := false
                   | `Deliver -> if cross then ok := false
                   | `Delayed _ -> ok := false))
          end)
        probes;
      Sim.Engine.run engine;
      !ok
      && Sim.Fault.Mesh.attempts mesh = !probed
      && Sim.Fault.Mesh.partition_dropped mesh = !expected_lost
      && Sim.Fault.Mesh.link_dropped mesh = 0
      && Sim.Fault.Mesh.delivered mesh = !probed - !expected_lost)

(* [Mesh.route]: datagram semantics on top of the session verdicts. *)

let route_mesh ?(seed = 2) ?partitions plan =
  let engine = Sim.Engine.create ~seed:1 () in
  let mesh =
    Sim.Fault.Mesh.create ~links:[ ((0, 1), plan) ] ?partitions ~n_nodes:3
      engine (Sim.Rng.create seed)
  in
  (engine, mesh)

(* Route [msgs] from node 0 to node 1 and return what arrived, in
   arrival order, after running the engine dry. *)
let route_all ?corrupt engine mesh msgs =
  let got = ref [] in
  List.iter
    (fun m ->
      Sim.Fault.Mesh.route mesh ~src:0 ~dst:1 ?corrupt
        (fun m -> got := m :: !got)
        m)
    msgs;
  Sim.Engine.run engine;
  List.rev !got

let test_route_duplicate () =
  let engine, mesh = route_mesh (Sim.Fault.plan ~duplicate:1.0 ()) in
  Alcotest.(check (list int)) "two deliveries" [ 7; 7 ]
    (route_all engine mesh [ 7 ]);
  Alcotest.(check int) "one attempt" 1 (Sim.Fault.Mesh.attempts mesh);
  Alcotest.(check int) "duplicated" 1 (Sim.Fault.Mesh.duplicated mesh);
  Alcotest.(check int) "both copies delivered" 2 (Sim.Fault.Mesh.delivered mesh)

let test_route_corrupt_with_corruptor () =
  let engine, mesh = route_mesh (Sim.Fault.plan ~corrupt:1.0 ()) in
  Alcotest.(check (list int)) "altered copy delivered" [ 8 ]
    (route_all ~corrupt:succ engine mesh [ 7 ]);
  Alcotest.(check int) "corrupted" 1 (Sim.Fault.Mesh.corrupted mesh);
  Alcotest.(check int) "delivered" 1 (Sim.Fault.Mesh.delivered mesh)

let test_route_corrupt_without_corruptor () =
  let engine, mesh = route_mesh (Sim.Fault.plan ~corrupt:1.0 ()) in
  Alcotest.(check (list int)) "copy lost" [] (route_all engine mesh [ 7 ]);
  Alcotest.(check int) "counted as corrupted" 1 (Sim.Fault.Mesh.corrupted mesh);
  Alcotest.(check int) "nothing delivered" 0 (Sim.Fault.Mesh.delivered mesh)

let test_route_outage () =
  let engine, mesh =
    route_mesh (Sim.Fault.plan ~duplicate:1.0 ~outages:[ (0., 10.) ] ())
  in
  let got = ref [] in
  let send m =
    Sim.Fault.Mesh.route mesh ~src:0 ~dst:1 (fun m -> got := m :: !got) m
  in
  send 1;
  ignore (Sim.Engine.schedule_after engine ~delay:20. (fun () -> send 2));
  Sim.Engine.run engine;
  (* The outage takes the whole message, before the duplicate draw. *)
  Alcotest.(check (list int)) "only the post-outage message" [ 2; 2 ]
    (List.rev !got);
  Alcotest.(check int) "outage drop" 1 (Sim.Fault.Mesh.outage_dropped mesh);
  Alcotest.(check int) "one duplicate" 1 (Sim.Fault.Mesh.duplicated mesh)

let test_route_partition_severs () =
  let engine, mesh =
    route_mesh
      ~partitions:
        [ Sim.Fault.Mesh.partition ~start:0. ~stop:10. ~groups:[| 0; 1; 0 |] ]
      Sim.Fault.reliable
  in
  let got = ref 0 in
  Sim.Fault.Mesh.route mesh ~src:0 ~dst:1 (fun () -> incr got) ();
  Sim.Fault.Mesh.route mesh ~src:0 ~dst:2 (fun () -> incr got) ();
  Sim.Engine.run engine;
  Alcotest.(check int) "same-group datagram delivered" 1 !got;
  Alcotest.(check int) "cross-group datagram severed" 1
    (Sim.Fault.Mesh.partition_dropped mesh)

(* Two meshes on the same seed stay in lockstep iff [traffic] drew
   nothing from the first one's stream. *)
let stream_untouched traffic =
  let probe plan_seed =
    let engine = Sim.Engine.create ~seed:1 () in
    let mesh =
      Sim.Fault.Mesh.create
        ~links:[ ((0, 1), plan_seed); ((1, 2), Sim.Fault.plan ~drop:0.5 ()) ]
        ~n_nodes:3 engine (Sim.Rng.create 9)
    in
    (engine, mesh)
  in
  let verdicts mesh =
    List.init 64 (fun _ ->
        match Sim.Fault.Mesh.attempt mesh ~src:1 ~dst:2 with
        | `Lost -> 0
        | `Deliver -> 1
        | `Delayed _ -> 2)
  in
  let plan, run = traffic in
  let engine, a = probe plan in
  let _, b = probe plan in
  run engine a;
  verdicts a = verdicts b

let test_route_reliable_leaves_rng () =
  Alcotest.(check bool) "reliable link draws nothing" true
    (stream_untouched
       ( Sim.Fault.reliable,
         fun engine mesh ->
           Alcotest.(check int) "all delivered" 50
             (List.length (route_all engine mesh (List.init 50 Fun.id))) ))

let test_attempt_ignores_datagram_faults () =
  Alcotest.(check bool) "attempt draws nothing for duplicate/corrupt" true
    (stream_untouched
       ( Sim.Fault.plan ~duplicate:1.0 ~corrupt:1.0 (),
         fun _ mesh ->
           for _ = 1 to 50 do
             match Sim.Fault.Mesh.attempt mesh ~src:0 ~dst:1 with
             | `Deliver -> ()
             | `Lost | `Delayed _ -> Alcotest.fail "session must go through"
           done;
           Alcotest.(check int) "no duplicates" 0 (Sim.Fault.Mesh.duplicated mesh);
           Alcotest.(check int) "no corruption" 0 (Sim.Fault.Mesh.corrupted mesh) ))

(* On a drop/delay-only plan a datagram is exactly one session attempt:
   same draws, same counters, and a held copy lands after the hold the
   twin's [`Delayed] verdict names. *)
let test_route_matches_attempt () =
  let plan = Sim.Fault.plan ~drop:0.3 ~delay_prob:0.4 ~delay_max:5. () in
  let engine_a, a = route_mesh ~seed:5 plan in
  let _, b = route_mesh ~seed:5 plan in
  let expected =
    List.concat
      (List.init 200 (fun m ->
           match Sim.Fault.Mesh.attempt b ~src:0 ~dst:1 with
           | `Lost -> []
           | `Deliver -> [ (m, 0.) ]
           | `Delayed d -> [ (m, d) ]))
  in
  let got = ref [] in
  for m = 0 to 199 do
    Sim.Fault.Mesh.route a ~src:0 ~dst:1
      (fun m -> got := (m, Sim.Engine.now engine_a) :: !got)
      m
  done;
  Sim.Engine.run engine_a;
  let sort = List.sort compare in
  Alcotest.(check (list (pair int (float 0.)))) "same fates" (sort expected)
    (sort !got);
  Alcotest.(check (list int)) "same counters"
    (List.map Sim.Stats.Counter.value (Sim.Fault.Mesh.counters b))
    (List.map Sim.Stats.Counter.value (Sim.Fault.Mesh.counters a))

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let schedule p n = List.init n (fun attempt -> Sim.Retry.delay p ~attempt)

let test_retry_schedules () =
  let check_sched name expected p =
    Alcotest.(check (list (float 0.))) name expected
      (schedule p (List.length expected))
  in
  (* The three production schedules: bank exchanges, the first-waits-
     a-freeze audit request, and the MTA default. *)
  check_sched "bank exchanges"
    [ 5.; 10.; 20.; 40.; 80.; 160.; 320.; 640.; 900.; 900. ]
    (Sim.Retry.policy ~initial:5. ~factor:2. ~cap:900.);
  check_sched "audit request" [ 605.; 900.; 900. ]
    (Sim.Retry.policy ~initial:605. ~factor:2. ~cap:900.);
  check_sched "mta" [ 60.; 120.; 240. ]
    (Sim.Retry.policy ~initial:60. ~factor:2. ~cap:3600.)

let test_retry_saturates () =
  let p = Sim.Retry.policy ~initial:5. ~factor:2. ~cap:900. in
  Alcotest.(check (float 0.)) "overflowing power clamps to the cap" 900.
    (Sim.Retry.delay p ~attempt:5000);
  let z = Sim.Retry.policy ~initial:0. ~factor:2. ~cap:900. in
  (* 2^1024 is infinite and 0 * inf is NaN: the zero base must win. *)
  Alcotest.(check (float 0.)) "zero base stays zero" 0.
    (Sim.Retry.delay z ~attempt:1024)

let test_retry_rejects_bad_policies () =
  let rejects name ~initial ~factor ~cap =
    match Sim.Retry.policy ~initial ~factor ~cap with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "negative factor" ~initial:60. ~factor:(-2.) ~cap:900.;
  rejects "shrinking factor" ~initial:60. ~factor:0.5 ~cap:900.;
  rejects "negative initial" ~initial:(-1.) ~factor:2. ~cap:900.;
  rejects "negative cap" ~initial:1. ~factor:2. ~cap:(-1.);
  rejects "NaN initial" ~initial:Float.nan ~factor:2. ~cap:900.;
  rejects "NaN factor" ~initial:1. ~factor:Float.nan ~cap:900.;
  rejects "NaN cap" ~initial:1. ~factor:2. ~cap:Float.nan;
  rejects "infinite cap" ~initial:1. ~factor:2. ~cap:Float.infinity

let test_retry_until_settled () =
  let engine = Sim.Engine.create ~seed:1 () in
  let p = Sim.Retry.policy ~initial:5. ~factor:2. ~cap:900. in
  let sends = ref [] and resent = ref [] in
  Sim.Retry.until_settled engine p
    ~on_resend:(fun timeout -> resent := timeout :: !resent)
    ~still:(fun () -> Sim.Engine.now engine < 100.)
    (fun () -> sends := Sim.Engine.now engine :: !sends);
  Sim.Engine.run engine;
  Alcotest.(check (list (float 0.))) "sends at 0, 5, 15, 35, 75"
    [ 0.; 5.; 15.; 35.; 75. ] (List.rev !sends);
  Alcotest.(check (list (float 0.))) "each resend names the expired timeout"
    [ 5.; 10.; 20.; 40. ] (List.rev !resent);
  let fired = ref false in
  Sim.Retry.until_settled engine p ~still:(fun () -> false) (fun () -> fired := true);
  Alcotest.(check bool) "settled exchange never sends" false !fired;
  Alcotest.(check int) "nothing scheduled" 0 (Sim.Engine.pending engine)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
          Alcotest.test_case "stream no seed/tag collision" `Quick
            test_rng_stream_no_seed_tag_collision;
          Alcotest.test_case "stream no swap" `Quick test_rng_stream_no_swap;
          Alcotest.test_case "stream_n distinct" `Quick test_rng_stream_n_distinct;
          Alcotest.test_case "stream deterministic" `Quick
            test_rng_stream_deterministic;
        ] );
      ( "dist",
        [
          Alcotest.test_case "bernoulli extremes" `Quick test_dist_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_dist_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_dist_normal_moments;
          Alcotest.test_case "poisson mean" `Quick test_dist_poisson_mean;
          Alcotest.test_case "poisson large mean" `Quick test_dist_poisson_large_mean;
          Alcotest.test_case "poisson zero" `Quick test_dist_poisson_zero;
          Alcotest.test_case "pareto support" `Quick test_dist_pareto_support;
          Alcotest.test_case "lognormal positive" `Quick test_dist_lognormal_positive;
          Alcotest.test_case "zipf ranks" `Quick test_dist_zipf_ranks;
          Alcotest.test_case "categorical" `Quick test_dist_categorical;
          Alcotest.test_case "draws pinned" `Quick test_dist_draws_pinned;
          Alcotest.test_case "geometric" `Quick test_dist_geometric;
          Alcotest.test_case "first_over boundaries" `Quick
            test_dist_first_over_boundaries;
        ]
        @ qcheck
            [
              test_dist_first_over_prop;
              test_dist_samplers_in_range;
              test_dist_guided_matches_first_over;
            ] );
      ( "heap",
        Alcotest.test_case "ordering" `Quick test_heap_ordering
        :: Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties
        :: Alcotest.test_case "peek" `Quick test_heap_peek
        :: Alcotest.test_case "unboxed accessors" `Quick test_heap_unboxed_accessors
        :: Alcotest.test_case "releases popped values" `Quick
             test_heap_releases_popped_values
        :: Alcotest.test_case "steady state allocates nothing" `Quick
             test_heap_steady_state_allocates_nothing
        :: qcheck [ test_heap_random_sorted; test_heap_matches_reference ] );
      ( "bitset",
        Alcotest.test_case "basic" `Quick test_bitset_basic
        :: qcheck [ test_bitset_iter_matches_elements ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "past rejected" `Quick test_engine_schedule_past_rejected;
          Alcotest.test_case "NaN rejected" `Quick test_engine_nan_rejected;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "periodic" `Quick test_engine_every;
          Alcotest.test_case "pending vs live" `Quick test_engine_pending_vs_live;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "monitor wall clock" `Quick test_engine_monitor_wall;
        ] );
      ( "stats",
        Alcotest.test_case "summary basic" `Quick test_summary_basic
        :: Alcotest.test_case "summary empty" `Quick test_summary_empty
        :: Alcotest.test_case "summary merge empty" `Quick test_summary_merge_empty
        :: Alcotest.test_case "summary single element" `Quick test_summary_single_element
        :: Alcotest.test_case "histogram quantile saturated" `Quick
             test_histogram_quantile_saturated
        :: Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets
        :: Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile
        :: Alcotest.test_case "histogram quantile empty" `Quick
             test_histogram_quantile_empty
        :: Alcotest.test_case "series" `Quick test_series
        :: Alcotest.test_case "counter" `Quick test_counter
        :: qcheck [ test_summary_merge ] );
      ( "table",
        [
          Alcotest.test_case "rows" `Quick test_table_rows;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "render" `Quick test_table_render;
        ] );
      ( "fault mesh",
        Alcotest.test_case "trivial is free" `Quick test_mesh_trivial_is_free
        :: Alcotest.test_case "link override" `Quick test_mesh_link_override
        :: Alcotest.test_case "route duplicates" `Quick test_route_duplicate
        :: Alcotest.test_case "route corrupts with a corruptor" `Quick
             test_route_corrupt_with_corruptor
        :: Alcotest.test_case "route loses corrupt copy without one" `Quick
             test_route_corrupt_without_corruptor
        :: Alcotest.test_case "route outage" `Quick test_route_outage
        :: Alcotest.test_case "route partition severs" `Quick
             test_route_partition_severs
        :: Alcotest.test_case "route reliable leaves rng" `Quick
             test_route_reliable_leaves_rng
        :: Alcotest.test_case "attempt ignores duplicate/corrupt" `Quick
             test_attempt_ignores_datagram_faults
        :: Alcotest.test_case "route matches attempt" `Quick
             test_route_matches_attempt
        :: qcheck [ mesh_partition_exact ] );
      ( "retry",
        [
          Alcotest.test_case "schedules" `Quick test_retry_schedules;
          Alcotest.test_case "saturates, never NaN" `Quick test_retry_saturates;
          Alcotest.test_case "rejects bad policies" `Quick
            test_retry_rejects_bad_policies;
          Alcotest.test_case "until settled" `Quick test_retry_until_settled;
        ] );
    ]
