type plan = { torn : float; rot : float }

let reliable = { torn = 0.; rot = 0. }

let validate p =
  let prob name v =
    if not (v >= 0. && v <= 1.) then
      invalid_arg (Printf.sprintf "Disk: %s must be a probability, got %g" name v)
  in
  prob "torn" p.torn;
  prob "rot" p.rot

let plan ?(torn = 0.) ?(rot = 0.) () =
  let p = { torn; rot } in
  validate p;
  p

type t = {
  plan : plan;
  rng : Rng.t;
  durable : Buffer.t;
  tail : Buffer.t;
  appends : Stats.Counter.t;
  flushes : Stats.Counter.t;
  power_cuts : Stats.Counter.t;
  torn_tails : Stats.Counter.t;
  rot_flips : Stats.Counter.t;
  lost_bytes : Stats.Counter.t;
}

let create ?(plan = reliable) rng =
  validate plan;
  {
    plan;
    rng = Rng.split rng;
    durable = Buffer.create 4096;
    tail = Buffer.create 256;
    appends = Stats.Counter.create "appends";
    flushes = Stats.Counter.create "flushes";
    power_cuts = Stats.Counter.create "power_cuts";
    torn_tails = Stats.Counter.create "torn_tails";
    rot_flips = Stats.Counter.create "rot_flips";
    lost_bytes = Stats.Counter.create "lost_bytes";
  }

let append t bytes =
  Stats.Counter.incr t.appends;
  Buffer.add_string t.tail bytes

let flush t =
  if Buffer.length t.tail > 0 then begin
    Stats.Counter.incr t.flushes;
    Buffer.add_buffer t.durable t.tail;
    Buffer.clear t.tail
  end

(* Probability draws are guarded so a reliable plan consumes no
   randomness (the [Fault] convention): adding a disk to a world and
   never crashing it leaves every downstream stream bit-identical. *)
let draw t prob = prob > 0. && Rng.unit_float t.rng < prob

let power_cut t =
  Stats.Counter.incr t.power_cuts;
  let tail_len = Buffer.length t.tail in
  if tail_len > 0 then begin
    let survives =
      if draw t t.plan.torn then begin
        Stats.Counter.incr t.torn_tails;
        (* A strict prefix: [0, tail_len), so at least the tail's last
           byte is always lost — a fully-written tail that survives
           intact is a flush, not a torn write. *)
        Rng.int t.rng tail_len
      end
      else 0
    in
    Stats.Counter.incr ~by:(tail_len - survives) t.lost_bytes;
    if survives > 0 then begin
      let frag = Bytes.of_string (Buffer.sub t.tail 0 survives) in
      if draw t t.plan.rot then begin
        Stats.Counter.incr t.rot_flips;
        let i = Rng.int t.rng survives in
        let bit = 1 lsl Rng.int t.rng 8 in
        Bytes.set frag i
          (Char.chr (Char.code (Bytes.get frag i) lxor bit land 0xff))
      end;
      Buffer.add_bytes t.durable frag
    end;
    Buffer.clear t.tail
  end

let contents t = Buffer.contents t.durable
let durable_size t = Buffer.length t.durable

(* Reuses the durable buffer: [contents] hands out copies, so nothing
   outside the device aliases it. *)
let reset_to t bytes =
  Buffer.clear t.durable;
  Buffer.add_string t.durable bytes;
  Buffer.clear t.tail

let appends t = Stats.Counter.value t.appends
let flushes t = Stats.Counter.value t.flushes
let torn_tails t = Stats.Counter.value t.torn_tails
let lost_bytes t = Stats.Counter.value t.lost_bytes

let counters t =
  [ t.appends; t.flushes; t.power_cuts; t.torn_tails; t.rot_flips; t.lost_bytes ]

let encode_state w t =
  Rng.encode_state w t.rng;
  Persist.Codec.W.str w (Buffer.contents t.durable);
  Persist.Codec.W.str w (Buffer.contents t.tail);
  List.iter (Stats.Counter.encode_state w) (counters t)

let restore_state r t =
  Rng.restore_state r t.rng;
  let durable = Persist.Codec.R.str r in
  let tail = Persist.Codec.R.str r in
  Buffer.clear t.durable;
  Buffer.add_string t.durable durable;
  Buffer.clear t.tail;
  Buffer.add_string t.tail tail;
  List.iter (Stats.Counter.restore_state r) (counters t)
