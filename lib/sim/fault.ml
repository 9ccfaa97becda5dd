type plan = {
  drop : float;
  duplicate : float;
  delay_prob : float;
  delay_max : float;
  corrupt : float;
  outages : (float * float) list;
}

let reliable =
  {
    drop = 0.;
    duplicate = 0.;
    delay_prob = 0.;
    delay_max = 0.;
    corrupt = 0.;
    outages = [];
  }

let validate p =
  let prob name v =
    if not (v >= 0. && v <= 1.) then
      invalid_arg (Printf.sprintf "Fault: %s must be a probability, got %g" name v)
  in
  prob "drop" p.drop;
  prob "duplicate" p.duplicate;
  prob "delay_prob" p.delay_prob;
  prob "corrupt" p.corrupt;
  if p.delay_max < 0. then invalid_arg "Fault: delay_max must be non-negative";
  List.iter
    (fun (start, stop) ->
      if stop < start then
        invalid_arg (Printf.sprintf "Fault: outage [%g, %g) ends before it starts" start stop))
    p.outages

let plan ?(drop = 0.) ?(duplicate = 0.) ?(delay_prob = 0.) ?(delay_max = 0.)
    ?(corrupt = 0.) ?(outages = []) () =
  let p = { drop; duplicate; delay_prob; delay_max; corrupt; outages } in
  validate p;
  p

module Mesh = struct
  type partition = { p_start : float; p_stop : float; groups : int array }

  let partition ~start ~stop ~groups =
    if stop < start then
      invalid_arg
        (Printf.sprintf "Fault.Mesh: partition [%g, %g) ends before it starts"
           start stop);
    if Array.length groups = 0 then
      invalid_arg "Fault.Mesh: partition needs a non-empty group assignment";
    { p_start = start; p_stop = stop; groups }

  type t = {
    n_nodes : int;
    default : plan;
    links : (int * int, plan) Hashtbl.t;
    partitions : partition list;
    engine : Engine.t;
    rng : Rng.t;
    trivial : bool;
    attempts : Stats.Counter.t;
    delivered : Stats.Counter.t;
    link_dropped : Stats.Counter.t;
    link_delayed : Stats.Counter.t;
    outage_dropped : Stats.Counter.t;
    partition_dropped : Stats.Counter.t;
    duplicated : Stats.Counter.t;
    corrupted : Stats.Counter.t;
  }

  let create ?(default = reliable) ?(links = []) ?(partitions = []) ~n_nodes
      engine rng =
    if n_nodes <= 0 then invalid_arg "Fault.Mesh: n_nodes must be positive";
    validate default;
    let tbl = Hashtbl.create (List.length links * 2) in
    List.iter
      (fun ((src, dst), p) ->
        if src < 0 || src >= n_nodes || dst < 0 || dst >= n_nodes then
          invalid_arg
            (Printf.sprintf "Fault.Mesh: link (%d, %d) outside 0..%d" src dst
               (n_nodes - 1));
        validate p;
        Hashtbl.replace tbl (src, dst) p)
      links;
    List.iter
      (fun pt ->
        if Array.length pt.groups <> n_nodes then
          invalid_arg
            (Printf.sprintf
               "Fault.Mesh: partition groups has %d entries for %d nodes"
               (Array.length pt.groups) n_nodes))
      partitions;
    {
      n_nodes;
      default;
      links = tbl;
      partitions;
      engine;
      rng = Rng.split rng;
      trivial = default = reliable && links = [] && partitions = [];
      attempts = Stats.Counter.create "attempts";
      delivered = Stats.Counter.create "delivered";
      link_dropped = Stats.Counter.create "link_dropped";
      link_delayed = Stats.Counter.create "link_delayed";
      outage_dropped = Stats.Counter.create "outage_dropped";
      partition_dropped = Stats.Counter.create "partition_dropped";
      duplicated = Stats.Counter.create "duplicated";
      corrupted = Stats.Counter.create "corrupted";
    }

  let n_nodes t = t.n_nodes
  let trivial t = t.trivial

  (* Pure reachability query: no counters, no randomness.  Used both by
     [attempt] and by audit scheduling to ask "is this node cut off
     right now?" without perturbing the fault stream. *)
  let severed t ~a ~b =
    a <> b
    && (let now = Engine.now t.engine in
        List.exists
          (fun p ->
            now >= p.p_start && now < p.p_stop && p.groups.(a) <> p.groups.(b))
          t.partitions)

  let plan_for t ~src ~dst =
    match Hashtbl.find_opt t.links (src, dst) with
    | Some p -> p
    | None -> t.default

  let draw t prob = prob > 0. && Rng.unit_float t.rng < prob

  let in_outage t plan =
    let now = Engine.now t.engine in
    List.exists (fun (start, stop) -> now >= start && now < stop) plan.outages

  (* Losses that strike every message on the link alike: an active
     partition, then the plan's outage windows.  Counted; [false] means
     the link is up and the per-copy draws decide. *)
  let cut t ~src ~dst plan =
    if severed t ~a:src ~b:dst then begin
      Stats.Counter.incr t.partition_dropped;
      true
    end
    else if in_outage t plan then begin
      Stats.Counter.incr t.outage_dropped;
      true
    end
    else false

  (* The [trivial] fast path returns before touching any counter or the
     RNG: a default mesh is free on the per-message hot path and leaves
     every downstream random stream bit-identical. *)
  let attempt t ~src ~dst =
    if t.trivial then `Deliver
    else begin
      Stats.Counter.incr t.attempts;
      let plan = plan_for t ~src ~dst in
      if cut t ~src ~dst plan then `Lost
      else if draw t plan.drop then begin
        Stats.Counter.incr t.link_dropped;
        `Lost
      end
      else if draw t plan.delay_prob then begin
        Stats.Counter.incr t.link_delayed;
        `Delayed (Rng.float t.rng (max plan.delay_max epsilon_float))
      end
      else begin
        Stats.Counter.incr t.delivered;
        `Deliver
      end
    end

  (* A surviving datagram copy is held back (delivered after the hold,
     never re-drawn) or handed over now. *)
  let pass t plan deliver msg =
    if draw t plan.delay_prob then begin
      Stats.Counter.incr t.link_delayed;
      let hold = Rng.float t.rng (max plan.delay_max epsilon_float) in
      ignore (Engine.schedule_after t.engine ~delay:hold (fun () -> deliver msg))
    end
    else begin
      Stats.Counter.incr t.delivered;
      deliver msg
    end

  (* [attempt]'s draws in [attempt]'s order, plus a duplicate draw per
     message and a corrupt draw per copy.  Every draw is guarded by
     [prob > 0.], so on a plan with [duplicate = corrupt = 0] a message
     consumes and counts exactly what one [attempt] does. *)
  let route t ~src ~dst ?corrupt deliver msg =
    if t.trivial then deliver msg
    else begin
      Stats.Counter.incr t.attempts;
      let plan = plan_for t ~src ~dst in
      if not (cut t ~src ~dst plan) then begin
        let copy () =
          if draw t plan.drop then Stats.Counter.incr t.link_dropped
          else if draw t plan.corrupt then begin
            Stats.Counter.incr t.corrupted;
            match corrupt with
            | Some f -> pass t plan deliver (f msg)
            | None -> ()  (* no corruptor: the elected copy is lost *)
          end
          else pass t plan deliver msg
        in
        if draw t plan.duplicate then begin
          Stats.Counter.incr t.duplicated;
          copy ()
        end;
        copy ()
      end
    end

  let attempts t = Stats.Counter.value t.attempts
  let delivered t = Stats.Counter.value t.delivered
  let link_dropped t = Stats.Counter.value t.link_dropped
  let link_delayed t = Stats.Counter.value t.link_delayed
  let outage_dropped t = Stats.Counter.value t.outage_dropped
  let partition_dropped t = Stats.Counter.value t.partition_dropped
  let duplicated t = Stats.Counter.value t.duplicated
  let corrupted t = Stats.Counter.value t.corrupted

  let counters t =
    [
      t.attempts;
      t.delivered;
      t.link_dropped;
      t.link_delayed;
      t.outage_dropped;
      t.partition_dropped;
      t.duplicated;
      t.corrupted;
    ]

  let encode_state w t =
    Rng.encode_state w t.rng;
    List.iter (Stats.Counter.encode_state w) (counters t)

  let restore_state r t =
    Rng.restore_state r t.rng;
    List.iter (Stats.Counter.restore_state r) (counters t)
end
