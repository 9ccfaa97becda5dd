(* The durable-WAL layer (E23's substrate): Persist.Wal framing
   properties, the Sim.Disk fault-injected device, and kernel-level
   crash/replay equivalence.  The framing properties are the recovery
   soundness argument run in anger: every prefix of a log is
   recoverable, every single-bit flip is detected, a torn final record
   is always truncated — so recovery can trust everything scan
   returns. *)

let qtest = QCheck_alcotest.to_alcotest
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Persist.Wal framing properties                                      *)
(* ------------------------------------------------------------------ *)

let payload_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 24))

let log_gen =
  QCheck.Gen.(list_size (int_range 1 6) payload_gen)

let log_arb = QCheck.make ~print:(fun ps -> String.concat "," (List.map String.escaped ps)) log_gen

let build_log payloads =
  String.concat "" (List.mapi (fun seq p -> Persist.Wal.frame ~seq p) payloads)

let is_prefix_of ~prefix l =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | a :: ta, b :: tb -> String.equal a b && go (ta, tb)
  in
  go (prefix, l)

(* Every-prefix recoverability: cut the log at EVERY byte boundary;
   scan returns exactly the records wholly inside the cut, reports the
   clean byte count to truncate to, and never raises.  This is the
   power-cut case with no torn fragment — the device lost an arbitrary
   unflushed suffix. *)
let prefix_recoverable =
  QCheck.Test.make ~name:"wal: every prefix of a log is recoverable" ~count:60
    log_arb
    (fun payloads ->
      let log = build_log payloads in
      let frame_ends =
        (* Cumulative end offset of each frame. *)
        let acc = ref 0 in
        List.mapi
          (fun seq p ->
            acc := !acc + String.length (Persist.Wal.frame ~seq p);
            !acc)
          payloads
      in
      let ok = ref true in
      for cut = 0 to String.length log do
        let s = Persist.Wal.scan (String.sub log 0 cut) in
        let expected_records =
          List.length (List.filter (fun e -> e <= cut) frame_ends)
        in
        let expected_clean =
          List.fold_left (fun a e -> if e <= cut then max a e else a) 0 frame_ends
        in
        ok :=
          !ok
          && List.length s.Persist.Wal.records = expected_records
          && is_prefix_of ~prefix:s.Persist.Wal.records payloads
          && s.Persist.Wal.clean_bytes = expected_clean
          && (if cut = expected_clean then s.Persist.Wal.verdict = Persist.Wal.Clean
              else
                match s.Persist.Wal.verdict with
                | Persist.Wal.Torn o -> o = expected_clean
                | _ -> false)
      done;
      !ok)

(* Every-bit-flip detection: flip each bit of the log in turn.  The
   damaged frame (and everything after it — sequence numbers chain the
   frames) must drop out; records before it survive untouched.  This is
   the bit-rot case: CRC-32 detects every single-bit error, and a flip
   that rewrites a length field turns into a torn or corrupt verdict,
   never a silently different record. *)
let bitflip_detected =
  QCheck.Test.make ~name:"wal: every single-bit flip is detected" ~count:25
    log_arb
    (fun payloads ->
      let log = build_log payloads in
      let n = List.length payloads in
      let ok = ref true in
      for bit = 0 to (8 * String.length log) - 1 do
        let bad = Bytes.of_string log in
        let byte = bit / 8 in
        Bytes.set bad byte
          (Char.chr (Char.code (Bytes.get bad byte) lxor (1 lsl (bit mod 8))));
        let s = Persist.Wal.scan (Bytes.to_string bad) in
        ok :=
          !ok
          && s.Persist.Wal.verdict <> Persist.Wal.Clean
          && List.length s.Persist.Wal.records < n
          && is_prefix_of ~prefix:s.Persist.Wal.records payloads
      done;
      !ok)

(* Torn final record: any strict prefix of a trailing frame appended to
   an intact log is detected as Torn exactly at the intact boundary —
   recovery keeps every complete record and truncates the fragment. *)
let torn_final_truncated =
  QCheck.Test.make ~name:"wal: torn final record always detected and truncated"
    ~count:60
    QCheck.(pair log_arb (make payload_gen))
    (fun (payloads, extra) ->
      let log = build_log payloads in
      let tail = Persist.Wal.frame ~seq:(List.length payloads) extra in
      let ok = ref true in
      for keep = 1 to String.length tail - 1 do
        let s = Persist.Wal.scan (log ^ String.sub tail 0 keep) in
        ok :=
          !ok
          && s.Persist.Wal.records = payloads
          && s.Persist.Wal.clean_bytes = String.length log
          && s.Persist.Wal.verdict = Persist.Wal.Torn (String.length log)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* CRC-32 and the frame byte layout                                    *)
(* ------------------------------------------------------------------ *)

module Crc32 = Persist.Codec.Crc32

(* An independent CRC-32 on [Int32] arithmetic: the same reflected
   table-driven algorithm written with boxed 32-bit values, returned
   as an unsigned int.  The native-int [Crc32] must agree with it on
   every input. *)
let crc32_reference s =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          if Int32.logand !c 1l <> 0l then
            c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else c := Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.to_int (Int32.logxor !c 0xFFFFFFFFl) land 0xFFFFFFFF

(* The frame as a [Codec.W] header + body, CRC trailer and string
   concatenation: the layout [Wal.frame] must reproduce byte for byte
   (WAL files already on disk decode only if it does). *)
let frame_reference ~seq payload =
  let w = Persist.Codec.W.create () in
  Persist.Codec.W.u32 w seq;
  Persist.Codec.W.str w payload;
  let body = Persist.Codec.W.contents w in
  let trailer = Persist.Codec.W.create () in
  Persist.Codec.W.u32 trailer (crc32_reference body);
  body ^ Persist.Codec.W.contents trailer

let byte_string_arb =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300))

let crc_check_values () =
  checki "CRC-32 check value" 0xCBF43926 (Crc32.string "123456789");
  checki "empty string" 0 (Crc32.string "");
  checki "sub of the whole string" 0xCBF43926
    (Crc32.sub "xx123456789y" ~pos:2 ~len:9);
  List.iter
    (fun (pos, len) ->
      match Crc32.sub "abc" ~pos ~len with
      | _ -> Alcotest.failf "sub ~pos:%d ~len:%d accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, 4); (2, 2); (1, -1) ]

let crc_matches_reference =
  QCheck.Test.make ~name:"crc32: equals the Int32 reference" ~count:300
    byte_string_arb (fun s -> Crc32.string s = crc32_reference s)

let crc_sub_is_string_of_sub =
  QCheck.Test.make ~name:"crc32: sub s ~pos ~len = string (String.sub s pos len)"
    ~count:300
    QCheck.(triple byte_string_arb small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Crc32.sub s ~pos ~len = Crc32.string (String.sub s pos len))

let crc_continues =
  QCheck.Test.make ~name:"crc32: string ~crc:(string a) b = string (a ^ b)"
    ~count:300
    QCheck.(pair byte_string_arb byte_string_arb)
    (fun (a, b) -> Crc32.string ~crc:(Crc32.string a) b = Crc32.string (a ^ b))

(* Slicing-by-8 folds eight bytes per step and finishes with a byte
   loop, so every length 0..64 (empty, tail only, whole steps, steps
   plus every tail) is checked at every start offset 0..7, aligned or
   not, against the byte-at-a-time reference. *)
let crc_sub_every_short_range =
  QCheck.Test.make ~name:"crc32: sub equals the reference at lengths 0-64, pos 0-7"
    ~count:50
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (return 72)))
    (fun s ->
      let ok = ref true in
      for pos = 0 to 7 do
        for len = 0 to 64 do
          let piece = String.sub s pos len in
          if Crc32.sub s ~pos ~len <> crc32_reference piece
             || Crc32.sub ~crc:0x1234567 s ~pos ~len
                <> Crc32.string ~crc:0x1234567 piece
          then ok := false
        done
      done;
      !ok)

let crc_sub_allocates_nothing () =
  let s = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Crc32.sub s ~pos:3 ~len:990))
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then Alcotest.failf "Crc32.sub: %.0f words over 1000 calls" words

let frame_matches_reference =
  QCheck.Test.make ~name:"wal: frame is byte-identical to the reference layout"
    ~count:300
    QCheck.(
      pair
        (make
           ~print:string_of_int
           Gen.(oneof [ int_range 0 1000; int_range 0 0xFFFFFFFF; return 0xFFFFFFFF ]))
        byte_string_arb)
    (fun (seq, payload) ->
      String.equal (Persist.Wal.frame ~seq payload) (frame_reference ~seq payload))

let frame_rejects_seq_outside_u32 () =
  List.iter
    (fun seq ->
      match Persist.Wal.frame ~seq "x" with
      | _ -> Alcotest.failf "frame ~seq:%d accepted" seq
      | exception Invalid_argument _ -> ())
    [ -1; 0x1_0000_0000; max_int; min_int ]

(* Splicing: a record carrying the wrong sequence number is Corrupt,
   even though its CRC is self-consistent — replayed or reordered
   frames cannot graft onto a foreign log. *)
let splice_rejected () =
  let a = Persist.Wal.frame ~seq:0 "alpha" in
  let b = Persist.Wal.frame ~seq:1 "beta" in
  let c_wrong = Persist.Wal.frame ~seq:3 "gamma" in
  let s = Persist.Wal.scan (a ^ b ^ c_wrong) in
  (match s.Persist.Wal.verdict with
  | Persist.Wal.Corrupt o -> checki "corrupt at splice" (String.length (a ^ b)) o
  | _ -> Alcotest.fail "spliced frame accepted");
  checki "two records survive" 2 (List.length s.Persist.Wal.records);
  (* A duplicated frame is equally a sequence violation. *)
  let s = Persist.Wal.scan (a ^ b ^ b) in
  checkb "duplicate frame rejected" true
    (s.Persist.Wal.verdict <> Persist.Wal.Clean)

(* ------------------------------------------------------------------ *)
(* Sim.Disk: the fault-injected device                                 *)
(* ------------------------------------------------------------------ *)

let disk_counter d name =
  Sim.Stats.Counter.value
    (List.find (fun c -> Sim.Stats.Counter.name c = name) (Sim.Disk.counters d))

let disk_semantics () =
  let d = Sim.Disk.create (Sim.Rng.create 7) in
  Sim.Disk.append d "hello ";
  Sim.Disk.append d "world";
  checki "nothing durable before flush" 0 (Sim.Disk.durable_size d);
  Sim.Disk.flush d;
  Alcotest.(check string) "flush acknowledges" "hello world" (Sim.Disk.contents d);
  checki "flush makes the whole tail durable" 11 (Sim.Disk.durable_size d);
  Sim.Disk.append d "lost";
  Sim.Disk.power_cut d;
  Alcotest.(check string) "reliable cut loses exactly the tail" "hello world"
    (Sim.Disk.contents d);
  checki "cut counted" 1 (disk_counter d "power_cuts");
  checki "lost bytes counted" 4 (Sim.Disk.lost_bytes d);
  checki "no torn tail on a reliable plan" 0 (Sim.Disk.torn_tails d);
  Sim.Disk.reset_to d "fresh";
  Alcotest.(check string) "reset_to replaces durable contents" "fresh"
    (Sim.Disk.contents d);
  let lost = Sim.Disk.lost_bytes d in
  Sim.Disk.power_cut d;
  checki "reset_to discards the tail" lost (Sim.Disk.lost_bytes d);
  (* [reset_to] reuses the durable buffer in place; contents handed out
     before it must not change under later resets and flushes. *)
  let before = Sim.Disk.contents d in
  Sim.Disk.reset_to d "x";
  Sim.Disk.append d "yz";
  Sim.Disk.flush d;
  Alcotest.(check string) "reset then flush" "xyz" (Sim.Disk.contents d);
  Alcotest.(check string) "earlier contents unaliased" "fresh" before

let disk_torn_strict_prefix () =
  (* With torn probability 1 every power cut leaves a fragment, and the
     fragment is always a strict prefix of the unflushed tail. *)
  let d = Sim.Disk.create ~plan:(Sim.Disk.plan ~torn:1.0 ()) (Sim.Rng.create 11) in
  let tail = "0123456789abcdef" in
  let torn = ref 0 in
  for _ = 1 to 50 do
    let base = Sim.Disk.contents d in
    Sim.Disk.append d tail;
    Sim.Disk.power_cut d;
    let c = Sim.Disk.contents d in
    let frag = String.sub c (String.length base) (String.length c - String.length base) in
    checkb "fragment is a strict prefix" true
      (String.length frag < String.length tail
      && String.equal frag (String.sub tail 0 (String.length frag)));
    incr torn
  done;
  (* The counter tracks the fault firing, so a torn roll that drew an
     empty fragment still counts. *)
  checki "every torn cut counted" !torn (Sim.Disk.torn_tails d);
  (* An empty-tail power cut damages nothing but is still a crash. *)
  let cuts = disk_counter d "power_cuts" in
  Sim.Disk.power_cut d;
  checki "empty-tail cut counted" (cuts + 1) (disk_counter d "power_cuts")

let disk_state_roundtrip () =
  let drive d =
    Sim.Disk.append d "abc";
    Sim.Disk.flush d;
    Sim.Disk.append d "defgh";
    Sim.Disk.power_cut d;
    Sim.Disk.append d "tail-in-flight"
  in
  let d = Sim.Disk.create ~plan:(Sim.Disk.plan ~torn:0.7 ~rot:0.4 ()) (Sim.Rng.create 13) in
  drive d;
  let img = Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d) () in
  let d2 = Sim.Disk.create ~plan:(Sim.Disk.plan ~torn:0.7 ~rot:0.4 ()) (Sim.Rng.create 99) in
  (match Persist.Codec.decode (fun r -> Sim.Disk.restore_state r d2) img with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  let img2 = Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d2) () in
  checkb "device state snapshots byte-identically" true (String.equal img img2);
  (* The restored RNG stream continues identically: the next faulty
     power cut makes the same decisions on both devices. *)
  Sim.Disk.power_cut d;
  Sim.Disk.power_cut d2;
  checkb "restored stream reproduces fault decisions" true
    (String.equal
       (Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d) ())
       (Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d2) ()))

(* ------------------------------------------------------------------ *)
(* Kernel WAL: crash replay equivalence and conservation               *)
(* ------------------------------------------------------------------ *)

(* A disk-backed kernel driven by a random op sequence.  Ops cover the
   logged transitions a kernel can perform without a bank on the other
   end: charges, deliveries (stamped and not), refunds of real charges,
   user top-ups, pool requests (RNG + nonce draws), end-of-day resets
   and warning drains. *)
let drive_ops k ops =
  let paid = ref 0 in
  List.iter
    (fun op ->
      match op mod 8 with
      | 0 | 1 -> (
          match Zmail.Isp.charge_send k ~sender:(op mod 3) ~dest_isp:1 with
          | Zmail.Isp.Sent_paid -> incr paid
          | _ -> ())
      | 2 -> ignore (Zmail.Isp.accept_delivery k ~from_isp:1 ~rcpt:(op mod 3))
      | 3 ->
          ignore
            (Zmail.Isp.accept_delivery_stamped k ~sender_epoch:(Some 0)
               ~from_isp:2 ~rcpt:(op mod 3))
      | 4 ->
          if !paid > 0 then begin
            decr paid;
            Zmail.Isp.refund_send k ~sender:(op mod 3) ~dest_isp:1
          end
      | 5 -> ignore (Zmail.Isp.user_topup k ~user:(op mod 3) ~amount:5)
      | 6 -> ignore (Zmail.Isp.pool_action k)
      | _ ->
          Zmail.Isp.end_of_day k;
          ignore (Zmail.Isp.limit_warnings k))
    ops

let mk_wal_kernel ~seed ~plan ~wal_group () =
  let rng = Sim.Rng.create seed in
  let compliant = [| true; true; true |] in
  let bank = Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps:3 ~compliant) in
  let disk = Sim.Disk.create ~plan (Sim.Rng.create (seed + 7)) in
  ( Zmail.Isp.create ~disk ~wal_group rng
      {
        (Zmail.Isp.default_config ~index:0 ~n_isps:3 ~n_users:3 ~compliant
           ~bank_public:(Zmail.Bank.public_key bank))
        with
        Zmail.Isp.minavail = 500;
        maxavail = 1500;
        initial_avail = 1000;
        buy_amount = 400;
      },
    rng )

let crash_and_recover k =
  Zmail.Isp.power_cut k;
  match Zmail.Isp.recover_wal k with
  | Ok () -> ()
  | Error e -> failwith ("recover_wal failed: " ^ e)

(* The reference for replay: recovery commutes with the ops.  One
   kernel runs [ops], crashes and replays them from its log; another
   (same seed) crashes first, when its log is the bare initial
   checkpoint so recovery is a pure checkpoint restore, and then runs
   the same [ops] live.  [drive_ops] never freezes, and both sides end
   with one counted crash, so with group commit 1 on a reliable device
   (every record flushed) the two durable images must match byte for
   byte: a replay that skipped, repeated or reordered one record, or
   drew a stream differently, would leave the first elsewhere. *)
let recovered ~seed ~crash_first ops =
  let k, _ = mk_wal_kernel ~seed ~plan:Sim.Disk.reliable ~wal_group:1 () in
  if crash_first then crash_and_recover k;
  ops k;
  if not crash_first then crash_and_recover k;
  k

let replay_equals_image =
  QCheck.Test.make
    ~name:"isp wal: group-1 replay == crash-instant image restore" ~count:40
    QCheck.(pair small_nat (list (int_bound 7)))
    (fun (seed, ops) ->
      let run crash_first =
        Zmail.Isp.durable_image
          (recovered ~seed ~crash_first (fun k -> drive_ops k ops))
      in
      String.equal (run false) (run true))

(* Under lazy group commit on a hostile device (torn tails, bit rot),
   recovery may rewind counter-only records — but never a penny: every
   money-moving record flushes before its effect can be observed, so
   total e-pennies survive any crash point exactly. *)
let conservation_across_crash =
  QCheck.Test.make
    ~name:"isp wal: faulty-disk crash conserves money at any group size"
    ~count:60
    QCheck.(triple small_nat (int_range 1 8) (list (int_bound 7)))
    (fun (seed, wal_group, ops) ->
      let plan = Sim.Disk.plan ~torn:0.8 ~rot:0.5 () in
      let k, _ = mk_wal_kernel ~seed ~plan ~wal_group () in
      drive_ops k ops;
      let money = Zmail.Isp.total_epennies k in
      let appended = Zmail.Isp.wal_appended k in
      Zmail.Isp.power_cut k;
      match Zmail.Isp.recover_wal k with
      | Error e -> QCheck.Test.fail_reportf "recover_wal failed: %s" e
      | Ok () ->
          Zmail.Isp.total_epennies k = money
          && Zmail.Isp.wal_replayed k <= appended
          && Zmail.Isp.stats_crashes k = 1)

(* Compaction: once the delta count crosses the threshold the log is
   rewritten as a fresh checkpoint; recovery from the compacted log
   still lands on the live state.  [recovered ~crash_first] runs the
   same ops with the crash after them or before them (as in
   [recovered] above) and returns the kernel's appended and replayed
   counts and its durable image. *)
let compaction_lands_on_live recovered =
  let appended, replayed, image = recovered ~crash_first:false in
  checkb "enough deltas to force compaction" true (appended > 512);
  checkb "few records replayed after compaction" true (replayed < 512);
  (* Replay crossed a compaction boundary and still lands where the
     same ops run live after a checkpoint-only recovery. *)
  let _, _, reference = recovered ~crash_first:true in
  checkb "compacted replay equals live ops" true (String.equal image reference)

let wal_compaction () =
  let ops k =
    for i = 0 to 699 do
      ignore (Zmail.Isp.charge_send k ~sender:(i mod 3) ~dest_isp:1);
      ignore (Zmail.Isp.accept_delivery k ~from_isp:1 ~rcpt:(i mod 3))
    done
  in
  compaction_lands_on_live (fun ~crash_first ->
      let k = recovered ~seed:5 ~crash_first ops in
      (Zmail.Isp.wal_appended k, Zmail.Isp.wal_replayed k, Zmail.Isp.durable_image k))

(* The bank's log under the same check: two ISPs buy one e-penny at a
   time, 350 buys each, so 700 logged messages and no audit round to
   checkpoint them away. *)
let bank_wal_compaction () =
  compaction_lands_on_live (fun ~crash_first ->
      let rng = Sim.Rng.create 31 in
      let compliant = [| true; true |] in
      let disk = Sim.Disk.create (Sim.Rng.create 32) in
      let bank =
        Zmail.Bank.create ~disk rng (Zmail.Bank.default_config ~n_isps:2 ~compliant)
      in
      let kernels =
        Array.init 2 (fun index ->
            Zmail.Isp.create rng
              {
                (Zmail.Isp.default_config ~index ~n_isps:2 ~n_users:2 ~compliant
                   ~bank_public:(Zmail.Bank.public_key bank))
                with
                Zmail.Isp.minavail = 1000;
                initial_avail = 0;
                buy_amount = 1;
              })
      in
      let crash () =
        Zmail.Bank.power_cut bank;
        match Zmail.Bank.recover_wal bank with
        | Ok () -> ()
        | Error e -> Alcotest.failf "bank recover_wal failed: %s" e
      in
      if crash_first then crash ();
      for _ = 1 to 350 do
        Array.iteri
          (fun index k ->
            match Zmail.Isp.pool_action k with
            | None -> Alcotest.fail "expected a buy request"
            | Some sealed -> (
                match Zmail.Bank.on_isp_message bank ~from_isp:index sealed with
                | Zmail.Bank.Reply r -> ignore (Zmail.Isp.on_bank_message k r)
                | _ -> Alcotest.fail "expected a buy reply"))
          kernels
      done;
      if not crash_first then crash ();
      (Zmail.Bank.wal_appended bank, Zmail.Bank.wal_replayed bank,
       Zmail.Bank.durable_image bank))

(* The bank's WAL: log the inputs, replay the messages — the reply
   cache must rebuild byte-identically so a post-crash retransmission
   is answered from cache instead of double-billed. *)
let bank_wal_replay () =
  let rng = Sim.Rng.create 21 in
  let compliant = [| true; true |] in
  let disk = Sim.Disk.create (Sim.Rng.create 22) in
  let bank =
    Zmail.Bank.create ~disk rng (Zmail.Bank.default_config ~n_isps:2 ~compliant)
  in
  let kernels =
    Array.init 2 (fun i ->
        Zmail.Isp.create rng
          {
            (Zmail.Isp.default_config ~index:i ~n_isps:2 ~n_users:2 ~compliant
               ~bank_public:(Zmail.Bank.public_key bank))
            with
            Zmail.Isp.minavail = 500;
            maxavail = 1500;
            initial_avail = 100;
            buy_amount = 400;
          })
  in
  (* Drive a buy from ISP 0 through the bank, crash the bank before the
     reply is applied, and retransmit: the replayed reply cache must
     absorb the duplicate. *)
  let sealed =
    match Zmail.Isp.pool_action kernels.(0) with
    | Some s -> s
    | None -> Alcotest.fail "expected a buy request"
  in
  let reply =
    match Zmail.Bank.on_isp_message bank ~from_isp:0 sealed with
    | Zmail.Bank.Reply r -> r
    | _ -> Alcotest.fail "expected a reply"
  in
  let account_after = Zmail.Bank.account_balance bank ~isp:0 in
  let other_after = Zmail.Bank.account_balance bank ~isp:1 in
  let outstanding_after = Zmail.Bank.outstanding_epennies bank in
  Zmail.Bank.power_cut bank;
  (match Zmail.Bank.recover_wal bank with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bank recover_wal failed: %s" e);
  checki "account survives the crash" account_after
    (Zmail.Bank.account_balance bank ~isp:0);
  checki "bystander account survives the crash" other_after
    (Zmail.Bank.account_balance bank ~isp:1);
  checki "outstanding survives the crash" outstanding_after
    (Zmail.Bank.outstanding_epennies bank);
  (* Retransmit the same sealed buy: answered from the replayed cache,
     no second debit. *)
  let reply2 =
    match Zmail.Bank.on_isp_message bank ~from_isp:0 sealed with
    | Zmail.Bank.Reply r -> r
    | _ -> Alcotest.fail "expected a cached reply"
  in
  checki "no double debit on retransmission" account_after
    (Zmail.Bank.account_balance bank ~isp:0);
  checkb "duplicate answered with the original reply" true (reply = reply2);
  checkb "replay counted" true
    ((Zmail.Bank.stats bank).Zmail.Bank.replays_dropped >= 1);
  (* The ISP applies exactly one of the two replies. *)
  ignore (Zmail.Isp.on_bank_message kernels.(0) reply);
  let pool_after = Zmail.Isp.total_epennies kernels.(0) in
  ignore (Zmail.Isp.on_bank_message kernels.(0) reply2);
  checki "kernel ignores the duplicate reply" pool_after
    (Zmail.Isp.total_epennies kernels.(0))

let () =
  Alcotest.run "wal"
    [
      ( "framing",
        [
          qtest prefix_recoverable;
          qtest bitflip_detected;
          qtest torn_final_truncated;
          Alcotest.test_case "splice rejected" `Quick splice_rejected;
          Alcotest.test_case "CRC-32 check values" `Quick crc_check_values;
          qtest crc_matches_reference;
          qtest crc_sub_is_string_of_sub;
          qtest crc_continues;
          qtest crc_sub_every_short_range;
          Alcotest.test_case "CRC-32 sub allocates nothing" `Quick crc_sub_allocates_nothing;
          qtest frame_matches_reference;
          Alcotest.test_case "frame rejects seq outside u32" `Quick
            frame_rejects_seq_outside_u32;
        ] );
      ( "disk",
        [
          Alcotest.test_case "append/flush/power-cut semantics" `Quick disk_semantics;
          Alcotest.test_case "torn fragment is a strict prefix" `Quick
            disk_torn_strict_prefix;
          Alcotest.test_case "state roundtrip" `Quick disk_state_roundtrip;
        ] );
      ( "kernel",
        [
          qtest replay_equals_image;
          qtest conservation_across_crash;
          Alcotest.test_case "compaction" `Quick wal_compaction;
          Alcotest.test_case "bank compaction" `Quick bank_wal_compaction;
          Alcotest.test_case "bank replay + reply cache" `Quick bank_wal_replay;
        ] );
    ]
