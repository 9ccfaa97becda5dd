type entry = { mutable items : (float * Message.t) list (* reversed *) }

(* Keyed on the interned domain ID plus the local part, so a delivery
   hashes one short string and an int rather than the whole address
   record.  Iteration order is never observable: [users] sorts and
   [total] sums. *)
module H = Hashtbl.Make (struct
  type t = Address.t

  let equal = Address.equal
  let hash (a : Address.t) = Hashtbl.hash a.Address.local lxor (a.Address.domain_id * 0x9e3779b1)
end)

type t = entry H.t

let create () = H.create 64

let entry t address =
  match H.find_opt t address with
  | Some e -> e
  | None ->
      let e = { items = [] } in
      H.replace t address e;
      e

let deliver t address ~time message =
  let e = entry t address in
  e.items <- (time, message) :: e.items

let messages t address =
  match H.find_opt t address with
  | None -> []
  | Some e -> List.rev_map snd e.items

let count t address =
  match H.find_opt t address with None -> 0 | Some e -> List.length e.items

let total t = H.fold (fun _ e acc -> acc + List.length e.items) t 0

let clear t address = H.remove t address
