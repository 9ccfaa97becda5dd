(* Domain-parallel world stepping.

   The assembled world shards cleanly: ISPs interact only through the
   SMTP mesh and the bank link, both of which are *world-local* here —
   each shard is a full [World.t] (own engine, own bank, own mesh, own
   RNG streams), so a shard's trajectory between barriers is a pure
   function of (config, shard seed, mail injected at earlier
   barriers).  That is what makes the parallelism deterministic:
   stepping the shards on 1, 2 or 4 domains cannot change any shard's
   inputs, and the only cross-shard interaction — mail between groups
   — happens at epoch-aligned barriers, drained in fixed group order
   on the coordinating domain.

   Cross-shard mail is outside-world mail on both ends (the sender's
   kernel sees a foreign domain, the receiver's sees a non-compliant
   source), so it is unpaid and conservation stays exact per shard.
   The window defaults to the audit period, so barriers align with
   audit/clearing boundaries and no audit round ever spans a merge. *)

let day = Sim.Engine.day
let hour = Sim.Engine.hour

type config = {
  groups : int;
  isps_per_group : int;
  users_per_isp : int;
  seed : int;
  days : float;
  window : float;
  cross_fraction : float;
  sends_per_user : int;
  partitions : int -> Sim.Fault.Mesh.partition list;
}

let default_config ~groups ~isps_per_group ~users_per_isp =
  {
    groups;
    isps_per_group;
    users_per_isp;
    seed = 0;
    days = 2.0;
    window = 12. *. hour;
    cross_fraction = 0.1;
    sends_per_user = 3;
    partitions = (fun _ -> []);
  }

type cross_msg = {
  at : float;
  src_group : int;
  src_isp : int;
  src_user : int;
  dst_group : int;
  dst_isp : int;
  dst_user : int;
}

(* [sent] is written only by the domain stepping this shard; a shared
   counter would race between domains and lose increments. *)
type shard = {
  group : int;
  world : World.t;
  outbox : cross_msg Queue.t;
  mutable sent : int;
}

type t = {
  cfg : config;
  shards : shard array;
  mutable cross_injected : int;
  mutable barriers : int;
}

let shards t = Array.map (fun s -> s.world) t.shards
let cross_sent t = Array.fold_left (fun acc s -> acc + s.sent) 0 t.shards
let cross_injected t = t.cross_injected
let barriers t = t.barriers

(* Per-shard world seed: derived through the mixed sub-stream scheme,
   never by arithmetic on the root seed (adjacent seeds would give
   adjacent shard seeds and correlated workloads). *)
let shard_seed ~seed g =
  let r = Sim.Rng.stream_n ~seed ~tag:0x9a12d g in
  Int64.to_int (Sim.Rng.int64 r) land max_int

(* E17's rank-scattering stride (see e17_scale.ml). *)
let stride_for universe =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec find c = if gcd c universe = 1 then c else find (c + 1) in
  find 7919

let attach_workload t shard =
  let cfg = t.cfg in
  let world = shard.world in
  let engine = World.engine world in
  let rng = Sim.Engine.rng engine in
  let universe = cfg.isps_per_group * cfg.users_per_isp in
  let stride = stride_for universe in
  let of_global g = (g / cfg.users_per_isp, g mod cfg.users_per_isp) in
  let rank = Sim.Dist.zipf ~n:universe ~s:1.1 in
  let send () =
    let g = (rank rng - 1) * stride mod universe in
    if cfg.groups > 1 && Sim.Dist.bernoulli rng cfg.cross_fraction then begin
      (* Cross-shard: decided and targeted from this shard's own
         stream, so the draw sequence is identical whatever the other
         shards are doing.  The message itself leaves at the next
         barrier. *)
      let dstg = Sim.Dist.uniform_int rng ~lo:0 ~hi:(cfg.groups - 2) in
      let dstg = if dstg >= shard.group then dstg + 1 else dstg in
      let tgt = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 1) in
      let src_isp, src_user = of_global g in
      let dst_isp, dst_user = of_global tgt in
      Queue.push
        {
          at = Sim.Engine.now engine;
          src_group = shard.group;
          src_isp;
          src_user;
          dst_group = dstg;
          dst_isp;
          dst_user;
        }
        shard.outbox;
      shard.sent <- shard.sent + 1
    end
    else begin
      let tgt = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
      let tgt = if tgt >= g then tgt + 1 else tgt in
      ignore (World.send_email world ~from:(of_global g) ~to_:(of_global tgt) ())
    end
  in
  let total_sends = universe * cfg.sends_per_user in
  let n_gen = Stdlib.min 16 total_sends in
  let per_gen = total_sends / n_gen in
  let rate = float_of_int per_gen /. (0.9 *. cfg.days *. day) in
  for i = 0 to n_gen - 1 do
    let budget = per_gen + (if i < total_sends mod n_gen then 1 else 0) in
    let rec step remaining () =
      if remaining > 0 then begin
        send ();
        ignore
          (Sim.Engine.schedule_after engine
             ~delay:(Sim.Dist.exponential rng ~rate)
             (step (remaining - 1)))
      end
    in
    ignore
      (Sim.Engine.schedule_after engine ~delay:(float_of_int i *. 13.)
         (step budget))
  done

let create cfg =
  if cfg.groups <= 0 then invalid_arg "Parworld.create: need at least one group";
  if cfg.window <= 0. then invalid_arg "Parworld.create: window must be positive";
  if cfg.cross_fraction < 0. || cfg.cross_fraction > 1. then
    invalid_arg "Parworld.create: cross_fraction out of range";
  (* Shard worlds are created sequentially: World.create interns SMTP
     domains into the process-global table, which is not thread-safe.
     Stepping never interns (hot paths resolve by precomputed IDs), so
     only creation needs to stay on one domain. *)
  let shards =
    Array.init cfg.groups (fun g ->
        let world =
          World.create
            {
              (World.default_config ~n_isps:cfg.isps_per_group
                 ~users_per_isp:cfg.users_per_isp)
              with
              World.seed = shard_seed ~seed:cfg.seed g;
              shard_tag = Printf.sprintf "g%d" g;
              audit_period = Some cfg.window;
              retain_mail = false;
              partitions = cfg.partitions g;
              customize_isp =
                (fun _ c ->
                  (* Same scale adjustments as E17: no zombie throttle,
                     population-scaled pool bounds. *)
                  {
                    c with
                    Isp.daily_limit = 1_000_000;
                    initial_avail = 2 * cfg.users_per_isp;
                    minavail = cfg.users_per_isp;
                    buy_amount = 5 * cfg.users_per_isp;
                    maxavail = 20 * cfg.users_per_isp;
                  });
            }
        in
        { group = g; world; outbox = Queue.create (); sent = 0 })
  in
  let t =
    { cfg; shards; cross_injected = 0; barriers = 0 }
  in
  Array.iter (attach_workload t) t.shards;
  t

(* A cross-group message's subject and label, validated once. *)
let note_subject = Smtp.Message.subject_line_exn "note"
let note_fields = [ World.label ~spam:false ]

(* Deliver one barrier-held message into its destination shard.  The
   receiving MTA stamps Received and runs the inbound filter
   synchronously — no events are scheduled, so injection order (fixed
   group order, queue order within a group) fully determines the
   merged state. *)
let inject t msg =
  let src = t.shards.(msg.src_group).world in
  let dst = t.shards.(msg.dst_group).world in
  let from_addr = World.address src ~isp:msg.src_isp ~user:msg.src_user in
  let to_addr = World.address dst ~isp:msg.dst_isp ~user:msg.dst_user in
  let rcpts = [ to_addr ] in
  let message =
    Smtp.Message.build ~from:from_addr ~to_:rcpts ~subject:note_subject ~date:msg.at
      ~fields:note_fields ~body:"hello" ()
  in
  let envelope = Smtp.Envelope.v ~sender:from_addr ~recipients:rcpts in
  Smtp.Mta.accept_from_remote (World.mta dst msg.dst_isp) envelope message;
  t.cross_injected <- t.cross_injected + 1

let merge t =
  Array.iter
    (fun s ->
      while not (Queue.is_empty s.outbox) do
        inject t (Queue.pop s.outbox)
      done)
    t.shards;
  t.barriers <- t.barriers + 1

let outboxes_empty t =
  Array.for_all (fun s -> Queue.is_empty s.outbox) t.shards

let run t ~domains =
  if domains <= 0 then invalid_arg "Parworld.run: domains must be positive";
  let total = t.cfg.days *. day in
  let step_to horizon =
    ignore
      (Sim.Domainpool.map ~domains
         (fun s -> Sim.Engine.run (World.engine s.world) ~until:horizon)
         t.shards)
  in
  let rec windows horizon =
    let h = Stdlib.min horizon total in
    step_to h;
    merge t;
    if h < total then windows (horizon +. t.cfg.window)
  in
  windows t.cfg.window;
  (* Quiesce: drain every shard, then flush any cross mail generated
     by the tail events; repeat until no shard holds anything. *)
  let rec drain () =
    ignore
      (Sim.Domainpool.map ~domains
         (fun s -> Sim.Engine.run (World.engine s.world))
         t.shards);
    if not (outboxes_empty t) then begin
      merge t;
      drain ()
    end
  in
  drain ()

(* The whole sharded world as one section list: each shard's capture
   under a "g<g>/" prefix, plus a "parworld" section for the
   coordinator's own state.  Byte-equality of two captures — one from
   a single-domain run, one from a multi-domain run — is the
   determinism law E22 and the qcheck suite enforce. *)
let capture t =
  let coordinator =
    ( "parworld",
      Persist.Codec.to_string
        (fun w () ->
          let open Persist.Codec.W in
          int w t.cfg.groups;
          int w (cross_sent t);
          int w t.cross_injected;
          int w t.barriers;
          Array.iter (fun s -> int w (Queue.length s.outbox)) t.shards)
        () )
  in
  coordinator
  :: List.concat_map
       (fun s ->
         List.map
           (fun (name, body) -> (Printf.sprintf "g%d/%s" s.group name, body))
           (World.capture s.world))
       (Array.to_list t.shards)

let events_fired t =
  Array.fold_left
    (fun acc s -> acc + Sim.Engine.events_fired (World.engine s.world))
    0 t.shards

let ham_delivered t =
  Array.fold_left
    (fun acc s -> acc + (World.counters s.world).World.ham_delivered)
    0 t.shards

let residue t =
  Array.fold_left (fun acc s -> acc + World.epenny_residue s.world) 0 t.shards

let audits t =
  Array.fold_left
    (fun acc s -> acc + List.length (World.audit_results s.world))
    0 t.shards
