(* Persistence subsystem tests: Codec combinator round-trips (qcheck),
   corruption rejection, component encode/restore pairs, durable-image
   refusal for the ISP and the bank, snapshot format stability (golden
   files) and version refusal (snapshots are never migrated: any
   version but the current one is an error), and resume determinism.

   Golden file maintenance: the committed reference snapshots live in
   test/golden/ (see [goldens] below).  To regenerate them after an
   intentional change (bump Persist.Snapshot.current_version first if
   the format itself changed — see DESIGN.md §8):

     ZMAIL_BLESS_GOLDEN=$PWD/test/golden dune exec test/test_persist.exe
*)

module Codec = Persist.Codec
module Snapshot = Persist.Snapshot

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Codec combinators: encode/decode round-trips (qcheck)               *)
(* ------------------------------------------------------------------ *)

let roundtrip_ok pp eq encode decode_one v =
  match Codec.decode decode_one (Codec.to_string encode v) with
  | Ok v' -> eq v v' || (Format.eprintf "roundtrip: %a <> %a@." pp v pp v'; false)
  | Error e -> Format.eprintf "roundtrip: decode error %s@." e; false

let qtest name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let pp_unit fmt _ = Format.pp_print_string fmt "_"

let codec_roundtrips =
  [
    qtest "u8 round-trips" 200
      QCheck.(int_range 0 255)
      (roundtrip_ok pp_unit ( = ) Codec.W.u8 Codec.R.u8);
    qtest "u32 round-trips" 200
      QCheck.(int_range 0 0xFFFFFFFF)
      (roundtrip_ok pp_unit ( = ) Codec.W.u32 Codec.R.u32);
    qtest "int round-trips" 500 QCheck.int
      (roundtrip_ok pp_unit ( = ) Codec.W.int Codec.R.int);
    qtest "i64 round-trips" 500
      QCheck.(map Int64.of_int int)
      (roundtrip_ok pp_unit ( = ) Codec.W.i64 Codec.R.i64);
    qtest "bool round-trips" 10 QCheck.bool
      (roundtrip_ok pp_unit ( = ) Codec.W.bool Codec.R.bool);
    qtest "float round-trips bit-exactly" 500 QCheck.float
      (roundtrip_ok pp_unit
         (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
         Codec.W.float Codec.R.float);
    qtest "str round-trips" 300 QCheck.string
      (roundtrip_ok pp_unit ( = ) Codec.W.str Codec.R.str);
    qtest "opt round-trips" 300
      QCheck.(option int)
      (roundtrip_ok pp_unit ( = ) (Codec.W.opt Codec.W.int)
         (Codec.R.opt Codec.R.int));
    qtest "list round-trips" 300
      QCheck.(list int)
      (roundtrip_ok pp_unit ( = ) (Codec.W.list Codec.W.int)
         (Codec.R.list Codec.R.int));
    qtest "array round-trips" 300
      QCheck.(array string)
      (roundtrip_ok pp_unit ( = ) (Codec.W.array Codec.W.str)
         (Codec.R.array Codec.R.str));
    qtest "int_array round-trips" 300
      QCheck.(array int)
      (roundtrip_ok pp_unit ( = ) Codec.W.int_array Codec.R.int_array);
    qtest "pair round-trips" 300
      QCheck.(pair int string)
      (roundtrip_ok pp_unit ( = )
         (Codec.W.pair Codec.W.int Codec.W.str)
         (Codec.R.pair Codec.R.int Codec.R.str));
    qtest "nested list (pair int (opt str)) round-trips" 200
      QCheck.(list (pair int (option string)))
      (roundtrip_ok pp_unit ( = )
         (Codec.W.list (Codec.W.pair Codec.W.int (Codec.W.opt Codec.W.str)))
         (Codec.R.list (Codec.R.pair Codec.R.int (Codec.R.opt Codec.R.str))));
  ]

(* ------------------------------------------------------------------ *)
(* Codec: malformed input is an error, never a wrong value             *)
(* ------------------------------------------------------------------ *)

let codec_corruption =
  [
    qtest "truncation is a decode error" 300
      QCheck.(pair (list int) (int_range 0 1000))
      (fun (xs, cut) ->
        let s = Codec.to_string (Codec.W.list Codec.W.int) xs in
        let cut = cut mod String.length s in
        (* Any strict prefix must fail: either a read runs off the end
           or expect_end sees leftover bytes of a half-written field. *)
        match
          Codec.decode (Codec.R.list Codec.R.int) (String.sub s 0 cut)
        with
        | Error _ -> true
        | Ok xs' -> xs' <> xs && false);
    qtest "trailing garbage is a decode error" 100
      QCheck.(list int)
      (fun xs ->
        let s = Codec.to_string (Codec.W.list Codec.W.int) xs in
        match Codec.decode (Codec.R.list Codec.R.int) (s ^ "x") with
        | Error _ -> true
        | Ok _ -> false);
    ( "writer range checks",
      `Quick,
      fun () ->
        let raises f =
          match f () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        checkb "u8 256 rejected" true
          (raises (fun () -> Codec.to_string Codec.W.u8 256));
        checkb "u8 -1 rejected" true
          (raises (fun () -> Codec.to_string Codec.W.u8 (-1)));
        checkb "u32 -1 rejected" true
          (raises (fun () -> Codec.to_string Codec.W.u32 (-1))) );
    ( "reader bool rejects non-boolean byte",
      `Quick,
      fun () ->
        match Codec.decode Codec.R.bool "\x07" with
        | Error _ -> ()
        | Ok b -> Alcotest.failf "decoded %b from byte 7" b );
  ]

(* ------------------------------------------------------------------ *)
(* Component encode/restore pairs                                      *)
(* ------------------------------------------------------------------ *)

let restore_into decode_one s =
  match Codec.decode decode_one s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e

let rng_roundtrip () =
  let rng = Sim.Rng.create 42 in
  for _ = 1 to 57 do ignore (Sim.Rng.int64 rng) done;
  let img = Codec.to_string Sim.Rng.encode_state rng in
  let expect = Array.init 100 (fun _ -> Sim.Rng.int64 rng) in
  let fresh = Sim.Rng.create 0 in
  restore_into (fun r -> Sim.Rng.restore_state r fresh) img;
  let got = Array.init 100 (fun _ -> Sim.Rng.int64 fresh) in
  checkb "restored rng continues the same stream" true (expect = got)

let stats_roundtrip () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.5; -2.0; 7.25; 0.0; 3.75 ];
  let s' = Sim.Stats.Summary.create () in
  restore_into
    (fun r -> Sim.Stats.Summary.restore_state r s')
    (Codec.to_string Sim.Stats.Summary.encode_state s);
  checki "summary count" (Sim.Stats.Summary.count s) (Sim.Stats.Summary.count s');
  check (Alcotest.float 0.) "summary mean" (Sim.Stats.Summary.mean s)
    (Sim.Stats.Summary.mean s');
  check (Alcotest.float 1e-9) "summary stddev" (Sim.Stats.Summary.stddev s)
    (Sim.Stats.Summary.stddev s');
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Sim.Stats.Histogram.add h) [ -1.; 0.5; 2.5; 2.6; 9.9; 42. ];
  let h' = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  restore_into
    (fun r -> Sim.Stats.Histogram.restore_state r h')
    (Codec.to_string Sim.Stats.Histogram.encode_state h);
  checki "histogram count" (Sim.Stats.Histogram.count h)
    (Sim.Stats.Histogram.count h');
  checki "histogram underflow" (Sim.Stats.Histogram.underflow h)
    (Sim.Stats.Histogram.underflow h');
  checki "histogram overflow" (Sim.Stats.Histogram.overflow h)
    (Sim.Stats.Histogram.overflow h');
  for b = 0 to 4 do
    checki "histogram bucket" (Sim.Stats.Histogram.bucket h b)
      (Sim.Stats.Histogram.bucket h' b)
  done;
  let series = Sim.Stats.Series.create "s" in
  Sim.Stats.Series.record series ~time:1. 10.;
  Sim.Stats.Series.record series ~time:2. 20.;
  let series' = Sim.Stats.Series.create "s" in
  restore_into
    (fun r -> Sim.Stats.Series.restore_state r series')
    (Codec.to_string Sim.Stats.Series.encode_state series);
  checkb "series points" true
    (Sim.Stats.Series.to_list series = Sim.Stats.Series.to_list series');
  let c = Sim.Stats.Counter.create "hits" in
  Sim.Stats.Counter.incr ~by:41 c;
  let c' = Sim.Stats.Counter.create "hits" in
  restore_into
    (fun r -> Sim.Stats.Counter.restore_state r c')
    (Codec.to_string Sim.Stats.Counter.encode_state c);
  checki "counter value" 41 (Sim.Stats.Counter.value c');
  (* A counter image names its counter; restoring it into a different
     counter is a shape mismatch, not a silent reassignment. *)
  let other = Sim.Stats.Counter.create "misses" in
  (match
     Codec.decode
       (fun r -> Sim.Stats.Counter.restore_state r other)
       (Codec.to_string Sim.Stats.Counter.encode_state c)
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "counter image restored under the wrong name")

let nonce_roundtrip () =
  let g = Toycrypto.Nonce.create (Sim.Rng.create 9) in
  for _ = 1 to 13 do ignore (Toycrypto.Nonce.next g) done;
  let img = Codec.to_string Toycrypto.Nonce.encode_state g in
  let expect = List.init 20 (fun _ -> Toycrypto.Nonce.next g) in
  let g' = Toycrypto.Nonce.create (Sim.Rng.create 0) in
  restore_into (fun r -> Toycrypto.Nonce.restore_state r g') img;
  checki "generator count restored" 13 (Toycrypto.Nonce.count g');
  let got = List.init 20 (fun _ -> Toycrypto.Nonce.next g') in
  checkb "restored generator continues the same nonce stream" true
    (expect = got)

let ledger_roundtrip () =
  let mk () =
    Zmail.Ledger.create ~n_users:6 ~initial_balance:10 ~initial_account:100
      ~daily_limit:20 ~initial_avail:500
  in
  let l = mk () in
  for u = 0 to 3 do
    match Zmail.Ledger.debit_send l ~user:u with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "debit_send refused in test setup"
  done;
  Zmail.Ledger.credit_receive l ~user:5;
  (match Zmail.Ledger.user_buy l ~user:2 ~amount:30 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let l' = mk () in
  restore_into
    (fun r -> Zmail.Ledger.restore_state r l')
    (Codec.to_string Zmail.Ledger.encode_state l);
  for u = 0 to 5 do
    checki "balance" (Zmail.Ledger.balance l ~user:u) (Zmail.Ledger.balance l' ~user:u);
    checki "account" (Zmail.Ledger.account l ~user:u) (Zmail.Ledger.account l' ~user:u);
    checki "sent_today" (Zmail.Ledger.sent_today l ~user:u)
      (Zmail.Ledger.sent_today l' ~user:u);
    checki "limit" (Zmail.Ledger.limit l ~user:u) (Zmail.Ledger.limit l' ~user:u)
  done;
  checki "avail" (Zmail.Ledger.avail l) (Zmail.Ledger.avail l');
  (* Restoring a 6-user image into a 4-user ledger is a shape error. *)
  let small =
    Zmail.Ledger.create ~n_users:4 ~initial_balance:10 ~initial_account:100
      ~daily_limit:20 ~initial_avail:500
  in
  match
    Codec.decode
      (fun r -> Zmail.Ledger.restore_state r small)
      (Codec.to_string Zmail.Ledger.encode_state l)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "ledger image restored into the wrong shape"

let credit_roundtrip () =
  let c = Zmail.Credit.create ~n:4 in
  Zmail.Credit.record_send c ~peer:1;
  Zmail.Credit.record_send c ~peer:1;
  Zmail.Credit.record_receive c ~peer:2;
  Zmail.Credit.record_receive_early c ~epoch:1 ~peer:3;
  Zmail.Credit.record_receive_early c ~epoch:4 ~peer:0;
  let c' = Zmail.Credit.create ~n:4 in
  restore_into
    (fun r -> Zmail.Credit.restore_state r c')
    (Codec.to_string Zmail.Credit.encode_state c);
  checkb "credit vector" true (Zmail.Credit.snapshot c = Zmail.Credit.snapshot c');
  checki "early_pending" (Zmail.Credit.early_pending c)
    (Zmail.Credit.early_pending c')

let wire_payload_gen =
  QCheck.(
    let amount = int_range 0 100_000 in
    let nonce = map Int64.of_int int in
    oneof
      [
        map (fun (amount, nonce) -> Zmail.Wire.Buy { amount; nonce })
          (pair amount nonce);
        map (fun (nonce, accepted) -> Zmail.Wire.Buy_reply { nonce; accepted })
          (pair nonce bool);
        map (fun (amount, nonce) -> Zmail.Wire.Sell { amount; nonce })
          (pair amount nonce);
        map (fun nonce -> Zmail.Wire.Sell_reply { nonce }) nonce;
        map (fun seq -> Zmail.Wire.Audit_request { seq }) amount;
        map
          (fun (isp, seq, credit) -> Zmail.Wire.Audit_reply { isp; seq; credit })
          (triple amount amount
             (array_of_size (Gen.int_range 0 8)
                (pair (int_range 0 9999) (int_range (-1000) 1000))));
      ])

let wire_tests =
  [
    qtest "wire payload binary round-trips" 500 wire_payload_gen
      (roundtrip_ok pp_unit ( = ) Zmail.Wire.encode_bin
         Zmail.Wire.decode_bin);
    ( "wire rejects negative amounts and bad tags",
      `Quick,
      fun () ->
        (* A Buy of -1: tag 0 then int64 -1. *)
        let w = Codec.W.create () in
        Codec.W.u8 w 0;
        Codec.W.int w (-1);
        Codec.W.i64 w 7L;
        (match Codec.decode Zmail.Wire.decode_bin (Codec.W.contents w) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "negative Buy amount decoded");
        let w = Codec.W.create () in
        Codec.W.u8 w 9;
        match Codec.decode Zmail.Wire.decode_bin (Codec.W.contents w) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown tag decoded" );
  ]

(* ------------------------------------------------------------------ *)
(* Durable images, the WAL checkpoint payload                         *)
(* ------------------------------------------------------------------ *)

let mk_kernel () =
  let rng = Sim.Rng.create 42 in
  let compliant = [| true; true |] in
  let bank =
    Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps:2 ~compliant)
  in
  let disk = Sim.Disk.create (Sim.Rng.create 43) in
  ( Zmail.Isp.create ~disk rng
      (Zmail.Isp.default_config ~index:0 ~n_isps:2 ~n_users:8 ~compliant
         ~bank_public:(Zmail.Bank.public_key bank)),
    bank,
    disk )

(* A WAL-backed kernel as the corrupt-checkpoint check sees it: its
   device, its checkpoint image, its recovery, and one live operation
   that shows it still works. *)
type durable = {
  disk : Sim.Disk.t;
  image : unit -> string;
  recover : unit -> (unit, string) result;
  serves : unit -> bool;
}

(* Damage anywhere in the checkpoint must make recovery report [Error],
   not raise and not restore a wrong kernel: every byte of record 0 is
   covered by its frame CRC (and the image inside by its own), and the
   refusal comes before any field is restored, so the kernel's state is
   untouched and it still works. *)
let checkpoint_damage_refused k =
  (* Record 0 of the log is the checkpoint holding a durable image; the
     operations that built [k] follow it as delta records. *)
  let log = Sim.Disk.contents k.disk in
  let record0 =
    match (Persist.Wal.scan log).Persist.Wal.records with
    | first :: _ :: _ -> Persist.Wal.frame ~seq:0 first
    | _ -> Alcotest.fail "expected a checkpoint and delta records"
  in
  checkb "log starts with record 0" true
    (String.starts_with ~prefix:record0 log);
  let reference = k.image () in
  for pos = 0 to String.length record0 - 1 do
    let bad = Bytes.of_string log in
    Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x40));
    Sim.Disk.reset_to k.disk (Bytes.to_string bad);
    (match k.recover () with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "flipped byte %d of record 0 accepted" pos
    | exception e ->
        Alcotest.failf "flipped byte %d raised %s instead of Error" pos
          (Printexc.to_string e));
    checkb "kernel untouched by refused log" true (k.image () = reference)
  done;
  checkb "kernel still works after refused logs" true (k.serves ())

let isp_durable_image () =
  let k, _, disk = mk_kernel () in
  for u = 0 to 5 do
    ignore (Zmail.Isp.charge_send k ~sender:u ~dest_isp:1)
  done;
  ignore (Zmail.Isp.accept_delivery k ~from_isp:1 ~rcpt:2);
  let crashes0 = Zmail.Isp.stats_crashes k in
  checkpoint_damage_refused
    {
      disk;
      image = (fun () -> Zmail.Isp.durable_image k);
      recover = (fun () -> Zmail.Isp.recover_wal k);
      (* A fresh send charges normally. *)
      serves =
        (fun () ->
          match Zmail.Isp.charge_send k ~sender:3 ~dest_isp:1 with
          | Zmail.Isp.Sent_paid | Zmail.Isp.Sent_free | Zmail.Isp.Blocked _ -> true
          | Zmail.Isp.Deferred -> false);
    };
  checki "refused recoveries count no crash" crashes0
    (Zmail.Isp.stats_crashes k);
  (* The §4.4 freeze is volatile: a kernel frozen by an audit request
     comes back unfrozen from an intact log, with the crash counted. *)
  let k, bank, _ = mk_kernel () in
  let signed = List.assoc 0 (Zmail.Bank.start_audit bank) in
  checkb "audit request freezes" true
    (Zmail.Isp.on_bank_message k signed = Zmail.Isp.Start_snapshot_timer);
  checkb "frozen before the crash" true (Zmail.Isp.frozen k);
  Zmail.Isp.power_cut k;
  (match Zmail.Isp.recover_wal k with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "recover_wal refused an intact log: %s" msg);
  checkb "freeze cleared" false (Zmail.Isp.frozen k);
  checki "crash counted" 1 (Zmail.Isp.stats_crashes k)

(* The same check on the bank's log: a buy from ISP 0 follows the
   checkpoint, and after every refused recovery a fresh buy from ISP 1
   is still answered. *)
let bank_durable_image () =
  let rng = Sim.Rng.create 42 in
  let compliant = [| true; true |] in
  let disk = Sim.Disk.create (Sim.Rng.create 44) in
  let bank =
    Zmail.Bank.create ~disk rng (Zmail.Bank.default_config ~n_isps:2 ~compliant)
  in
  let buy index =
    let k =
      Zmail.Isp.create rng
        {
          (Zmail.Isp.default_config ~index ~n_isps:2 ~n_users:8 ~compliant
             ~bank_public:(Zmail.Bank.public_key bank))
          with
          Zmail.Isp.initial_avail = 100;
        }
    in
    match Zmail.Isp.pool_action k with
    | Some sealed -> Zmail.Bank.on_isp_message bank ~from_isp:index sealed
    | None -> Alcotest.fail "expected a buy request"
  in
  let answered = function Zmail.Bank.Reply _ -> true | _ -> false in
  checkb "buy answered" true (answered (buy 0));
  checkpoint_damage_refused
    {
      disk;
      image = (fun () -> Zmail.Bank.durable_image bank);
      recover = (fun () -> Zmail.Bank.recover_wal bank);
      serves = (fun () -> answered (buy 1));
    }

(* ------------------------------------------------------------------ *)
(* Snapshot container                                                  *)
(* ------------------------------------------------------------------ *)

let sample_snapshot () =
  Snapshot.v ~experiment:"e2" ~label:"scenario a" ~seed:7 ~time:12345.5
    [ ("alpha", "\x00\x01binary\xff"); ("beta", ""); ("gamma", String.make 300 'g') ]

let snapshot_roundtrip () =
  let snap = sample_snapshot () in
  let s = Snapshot.to_string snap in
  match Snapshot.of_string s with
  | Error e -> Alcotest.failf "of_string failed: %s" e
  | Ok snap' ->
      (match Snapshot.diff snap snap' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "diff after round-trip: %s" e);
      checkb "re-serialization is byte-identical" true
        (String.equal (Snapshot.to_string snap') s);
      checkb "section lookup" true
        (Snapshot.section snap' "beta" = Some "");
      checkb "missing section" true (Snapshot.section snap' "delta" = None)

let snapshot_corruption =
  qtest "any single flipped byte is a read error" 300
    QCheck.(pair (int_range 0 10_000) (int_range 1 255))
    (fun (pos, mask) ->
      let s = Snapshot.to_string (sample_snapshot ()) in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      match Snapshot.of_string (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

let snapshot_truncation =
  qtest "any truncation is a read error" 200
    QCheck.(int_range 0 10_000)
    (fun cut ->
      let s = Snapshot.to_string (sample_snapshot ()) in
      let cut = cut mod String.length s in
      match Snapshot.of_string (String.sub s 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let snapshot_diff_reports () =
  let a = sample_snapshot () in
  let b =
    Snapshot.v ~experiment:"e2" ~label:"scenario a" ~seed:7 ~time:12345.5
      [ ("alpha", "\x00\x01binary\xff"); ("beta", "x"); ("gamma", String.make 300 'g') ]
  in
  (match Snapshot.diff a b with
  | Error msg ->
      checkb "diff names the changed section" true (contains_sub ~sub:"beta" msg)
  | Ok () -> Alcotest.fail "diff missed a changed section");
  let c =
    Snapshot.v ~experiment:"e2" ~label:"scenario a" ~seed:8 ~time:12345.5
      a.Snapshot.sections
  in
  match Snapshot.diff a c with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "diff missed a seed change"

(* Snapshots are never migrated: a file from the previous format
   version (v7 still carried a standalone "fault" section) is an error,
   never a half-understood world, and so is one from a newer build. *)
(* The version [Snapshot.v] stamps on every snapshot it builds. *)
let current_version =
  (Snapshot.v ~experiment:"" ~label:"" ~seed:0 ~time:0. []).Snapshot.version

let version_refused version () =
  let other = { (sample_snapshot ()) with Snapshot.version } in
  match Snapshot.of_string (Snapshot.to_string other) with
  | Error msg ->
      checkb "names the version" true
        (contains_sub ~sub:(Printf.sprintf "version %d" version) msg)
  | Ok _ -> Alcotest.failf "version-%d snapshot accepted" version

(* ------------------------------------------------------------------ *)
(* World capture: segmented runs and capture purity                    *)
(* ------------------------------------------------------------------ *)

let mk_world seed =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:2 ~users_per_isp:10) with
        Zmail.World.seed;
        audit_period = Some (6. *. Sim.Engine.hour);
      }
  in
  Zmail.World.attach_user_traffic world ();
  world

let snap_of world ~label =
  Snapshot.v ~experiment:"test" ~label
    ~seed:(Zmail.World.config world).Zmail.World.seed
    ~time:(Sim.Engine.now (Zmail.World.engine world))
    (Zmail.World.capture world)

let assert_same_world a b =
  match Snapshot.diff a b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "worlds diverged: %s" e

let segmented_equals_straight () =
  let straight = mk_world 5 in
  Zmail.World.run_days straight 1.;
  let segmented = mk_world 5 in
  let engine = Zmail.World.engine segmented in
  List.iter
    (fun frac -> Sim.Engine.run engine ~until:(frac *. Sim.Engine.day))
    [ 0.13; 0.5; 0.77; 1.0 ];
  assert_same_world (snap_of straight ~label:"x") (snap_of segmented ~label:"x")

let capture_sections () =
  let names = List.map fst (Zmail.World.capture (mk_world 4)) in
  checkb "bank links live in the mesh section" true (List.mem "mesh" names);
  checkb "no standalone fault section" false (List.mem "fault" names)

let capture_is_pure () =
  let observed = mk_world 6 in
  let engine = Zmail.World.engine observed in
  Sim.Engine.run engine ~until:(0.3 *. Sim.Engine.day);
  ignore (Zmail.World.capture observed);
  ignore (Zmail.World.capture observed);
  Sim.Engine.run engine ~until:(0.9 *. Sim.Engine.day);
  let blind = mk_world 6 in
  Sim.Engine.run (Zmail.World.engine blind) ~until:(0.9 *. Sim.Engine.day);
  assert_same_world (snap_of blind ~label:"y") (snap_of observed ~label:"y")

(* ------------------------------------------------------------------ *)
(* Checkpoint driver: stop, resume, verify, byte-identical end state   *)
(* ------------------------------------------------------------------ *)

let checkpoint_resume_determinism () =
  let file = Filename.temp_file "zmail_test" ".snap" in
  (* Interrupted run: stop (and snapshot) at 0.4 simulated days. *)
  let stopped =
    let w = mk_world 11 in
    let ck =
      Harness.Checkpoint.create ~snapshot:file
        ~stop_at:(0.4 *. Sim.Engine.day) ~experiment:"test" ()
    in
    match Harness.Checkpoint.drive ck ~label:"only" ~world:w ~days:1. () with
    | () -> false
    | exception Harness.Checkpoint.Stopped { time; _ } ->
        check (Alcotest.float 0.) "stopped at the requested time"
          (0.4 *. Sim.Engine.day) time;
        true
  in
  checkb "stop-at raised Stopped" true stopped;
  (* Resumed run: replay to the snapshot, byte-verify, continue. *)
  let resumed = mk_world 11 in
  let ck = Harness.Checkpoint.create ~resume:file ~experiment:"test" () in
  Harness.Checkpoint.drive ck ~label:"only" ~world:resumed ~days:1. ();
  (* [finished] is [Ok] only once the snapshot was reached and the
     replayed world byte-verified against it. *)
  (match Harness.Checkpoint.finished ck with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Straight run: same world, no interruption anywhere. *)
  let straight = mk_world 11 in
  Zmail.World.run_days straight 1.;
  assert_same_world (snap_of straight ~label:"z") (snap_of resumed ~label:"z");
  Sys.remove file

let checkpoint_mismatches () =
  let file = Filename.temp_file "zmail_test" ".snap" in
  (let w = mk_world 12 in
   let ck =
     Harness.Checkpoint.create ~snapshot:file ~stop_at:(0.2 *. Sim.Engine.day)
       ~experiment:"test" ()
   in
   try Harness.Checkpoint.drive ck ~label:"a" ~world:w ~days:1. ()
   with Harness.Checkpoint.Stopped _ -> ());
  (* Wrong experiment: refused outright. *)
  (match Harness.Checkpoint.create ~resume:file ~experiment:"other" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cross-experiment resume accepted");
  (* Wrong label: never consumed, flagged by [finished]. *)
  let w = mk_world 12 in
  let ck = Harness.Checkpoint.create ~resume:file ~experiment:"test" () in
  Harness.Checkpoint.drive ck ~label:"b" ~world:w ~days:1. ();
  (match Harness.Checkpoint.finished ck with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unconsumed resume snapshot not reported");
  (* A diverged world (wrong seed for the same label) must fail the
     byte-verification loudly, not continue from a wrong state. *)
  let w = mk_world 13 in
  let ck = Harness.Checkpoint.create ~resume:file ~experiment:"test" () in
  (match Harness.Checkpoint.drive ck ~label:"a" ~world:w ~days:1. () with
  | () -> ()  (* seed mismatch: snapshot simply not consumed *)
  | exception Failure _ -> Alcotest.fail "seed-mismatched snapshot consumed");
  (match Harness.Checkpoint.finished ck with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "seed mismatch not reported");
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Golden snapshot: format regression                                  *)
(* ------------------------------------------------------------------ *)

(* The committed golden snapshots: test name, path, and the recipe
   that rebuilds it.  Changing the simulation, any component's encoding, or the
   snapshot container breaks these tests — regenerate per the header
   comment (and bump {!Snapshot.current_version} if the format itself
   changed).

   [e2_short.snap] is a disk-less world.  [wal_short.snap] attaches a
   torn-write, bit-rot device to both kernels and the bank and commits
   ISP records in groups of 4.  ISP 1 crashes just after the 6 h audit
   request froze it (its lazy freeze record is in the volatile tail,
   and the power cut leaves a torn, bit-flipped fragment of it); the
   bank crashes after ISP 1's recovery, with the open round's start,
   resend and reply records to replay.  Both recoveries succeed, so
   the device and WAL-bookkeeping sections are pinned after a
   recovery each. *)
let goldens =
  [
    ( "committed snapshot still decodes and matches",
      "golden/e2_short.snap",
      fun () ->
        let w = mk_world 42 in
        Zmail.World.run_days w 0.2;
        snap_of w ~label:"e2-short" );
    ( "WAL snapshot still decodes and matches",
      "golden/wal_short.snap",
      fun () ->
        let w =
          Zmail.World.create
            {
              (Zmail.World.default_config ~n_isps:2 ~users_per_isp:10) with
              Zmail.World.seed = 41;
              audit_period = Some (6. *. Sim.Engine.hour);
              disk = Some (Sim.Disk.plan ~torn:0.5 ~rot:0.5 ());
              wal_group = 4;
            }
        in
        Zmail.World.attach_user_traffic w ();
        Zmail.World.run_days w 0.2502;
        Zmail.World.crash_isp w ~isp:1 ~downtime:600.;
        Zmail.World.run_days w (0.2575 -. 0.2502);
        Zmail.World.crash_bank w ~downtime:600.;
        Zmail.World.run_days w (0.3 -. 0.2575);
        snap_of w ~label:"wal-short" );
  ]

let read_raw path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_snapshot ~path recipe () =
  let live = recipe () in
  match Sys.getenv_opt "ZMAIL_BLESS_GOLDEN" with
  | Some dir ->
      let out = Filename.concat dir (Filename.basename path) in
      Snapshot.write_file ~path:out live;
      Printf.eprintf "blessed %s\n%!" out
  | None -> (
      let raw = read_raw path in
      match Snapshot.of_string raw with
      | Error e -> Alcotest.failf "%s unreadable: %s" path e
      | Ok golden ->
          checki "golden is the current format version" live.Snapshot.version
            golden.Snapshot.version;
          checkb "golden re-serializes byte-identically" true
            (String.equal (Snapshot.to_string golden) raw);
          (match Snapshot.diff golden live with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf
                "the live world no longer matches %s (%s); if the change is \
                 intentional, regenerate it — see the header of \
                 test_persist.ml"
                path e))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "persist"
    [
      ("codec-roundtrip", codec_roundtrips);
      ("codec-corruption", codec_corruption);
      ( "components",
        [
          ("rng stream", `Quick, rng_roundtrip);
          ("stats", `Quick, stats_roundtrip);
          ("nonce generator", `Quick, nonce_roundtrip);
          ("ledger", `Quick, ledger_roundtrip);
          ("credit", `Quick, credit_roundtrip);
          ("isp durable image", `Quick, isp_durable_image);
          ("bank durable image", `Quick, bank_durable_image);
        ]
        @ wire_tests );
      ( "snapshot",
        [
          ("round-trip and stability", `Quick, snapshot_roundtrip);
          snapshot_corruption;
          snapshot_truncation;
          ("diff reports first difference", `Quick, snapshot_diff_reports);
          ("previous version refused", `Quick,
           version_refused (current_version - 1));
          ("newer version refused", `Quick,
           version_refused (current_version + 1));
        ] );
      ( "world",
        [
          ("segmented run equals straight run", `Quick, segmented_equals_straight);
          ("capture does not perturb the run", `Quick, capture_is_pure);
          ("one fault section: the mesh", `Quick, capture_sections);
        ] );
      ( "checkpoint",
        [
          ("stop, resume, verify, identical end state", `Quick,
           checkpoint_resume_determinism);
          ("mismatched resumes are refused or reported", `Quick,
           checkpoint_mismatches);
        ] );
      ( "golden",
        List.map
          (fun (name, path, recipe) -> (name, `Quick, golden_snapshot ~path recipe))
          goldens );
    ]
