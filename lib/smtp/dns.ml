type host = int

(* Two indexes over the same bindings: the string-keyed table serves
   cold-path lookups by raw domain string, and [by_id] — indexed by the
   domain's interned ID (see Address) — serves the per-delivery hot
   path with a bounds check and an array load, no hashing.  [-1] marks
   an unbound ID. *)
type t = {
  by_name : (string, host) Hashtbl.t;
  mutable by_id : host array;
}

let create () = { by_name = Hashtbl.create 64; by_id = Array.make 64 (-1) }

let ensure t id =
  let n = Array.length t.by_id in
  if id >= n then begin
    let grown = Array.make (Stdlib.max (id + 1) (2 * n)) (-1) in
    Array.blit t.by_id 0 grown 0 n;
    t.by_id <- grown
  end

let register t ~domain host =
  let domain = Address.lowercase_if_needed domain in
  Hashtbl.replace t.by_name domain host;
  let id = Address.intern_domain domain in
  ensure t id;
  t.by_id.(id) <- host

let lookup t ~domain =
  Hashtbl.find_opt t.by_name (Address.lowercase_if_needed domain)

let lookup_id t id =
  if id >= 0 && id < Array.length t.by_id && t.by_id.(id) >= 0 then
    Some t.by_id.(id)
  else None

let lookup_addr t addr = lookup_id t (Address.domain_id addr)

let size t = Hashtbl.length t.by_name
