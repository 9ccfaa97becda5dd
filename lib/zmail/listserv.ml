type member = {
  mutable missed : int;  (** Consecutive posts without an ack. *)
  mutable acked_current : bool;  (** Ack seen for the open post window. *)
}

type t = {
  list_id : string;
  list_fields : Smtp.Message.field list;  (* [List-Id: list_id] *)
  post_subject : Smtp.Message.subject_line;  (* ["[list_id] post"] *)
  address : Smtp.Address.t;
  members : (Smtp.Address.t, member) Hashtbl.t;
  mutable spent : int;
  mutable refunded : int;
  mutable post_open : bool;
}

let create ~list_id ~address =
  let list_field =
    match Smtp.Message.field "List-Id" list_id with
    | Ok f -> f
    | Error e -> invalid_arg ("Listserv.create: " ^ e)
  in
  {
    list_id;
    list_fields = [ list_field ];
    (* A valid [list_id] makes a valid subject. *)
    post_subject = Smtp.Message.subject_line_exn ("[" ^ list_id ^ "] post");
    address;
    members = Hashtbl.create 64;
    spent = 0;
    refunded = 0;
    post_open = false;
  }

let address t = t.address

let subscribe t addr =
  if not (Hashtbl.mem t.members addr) then
    Hashtbl.replace t.members addr { missed = 0; acked_current = false }

let unsubscribe t addr = Hashtbl.remove t.members addr

let subscribers t =
  Hashtbl.fold (fun a _ acc -> a :: acc) t.members [] |> List.sort Smtp.Address.compare

let subscriber_count t = Hashtbl.length t.members

let distribute t ~body ?date () =
  Hashtbl.iter (fun _ m -> m.acked_current <- false) t.members;
  t.post_open <- true;
  let expansions =
    List.map
      (fun subscriber ->
        t.spent <- t.spent + 1;
        ( subscriber,
          Smtp.Message.build ~from:t.address ~to_:[ subscriber ] ~subject:t.post_subject ?date
            ~fields:t.list_fields ~body () ))
      (subscribers t)
  in
  expansions

let on_ack t ~from ~list_id =
  if list_id <> t.list_id then false
  else
    match Hashtbl.find_opt t.members from with
    | None -> false
    | Some m ->
        if m.acked_current then false  (* duplicate ack: no double refund *)
        else begin
          m.acked_current <- true;
          m.missed <- 0;
          t.refunded <- t.refunded + 1;
          true
        end

let note_post_complete t =
  if t.post_open then begin
    Hashtbl.iter (fun _ m -> if not m.acked_current then m.missed <- m.missed + 1)
      t.members;
    t.post_open <- false
  end

let prune t ~max_missed =
  if max_missed <= 0 then invalid_arg "Listserv.prune: max_missed must be positive";
  let stale =
    Hashtbl.fold (fun a m acc -> if m.missed >= max_missed then a :: acc else acc)
      t.members []
  in
  List.iter (Hashtbl.remove t.members) stale;
  List.sort Smtp.Address.compare stale

let epennies_spent t = t.spent
let epennies_refunded t = t.refunded
let net_cost t = t.spent - t.refunded
