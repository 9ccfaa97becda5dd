type t = { local : string; domain : string; domain_id : int }

(* Process-wide domain intern table.  Domains are drawn from a small
   set (one per simulated ISP plus a handful of test fixtures), while
   addresses are constructed millions of times, so every address
   carries its domain's dense integer ID: routing tables can then be
   arrays indexed by [domain_id] instead of string-keyed hashtables
   (see World).  IDs are content-keyed and process-stable — the same
   lowercase domain string always interns to the same ID, in every
   world of the process — which keeps structural equality of addresses
   aligned with {!equal}. *)
let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 256

let intern_names : string array ref = ref [||]

let intern_count = ref 0

let intern_domain domain =
  match Hashtbl.find_opt intern_tbl domain with
  | Some id -> id
  | None ->
      let id = !intern_count in
      Hashtbl.replace intern_tbl domain id;
      let names = !intern_names in
      let n = Array.length names in
      if id >= n then begin
        let grown = Array.make (Stdlib.max 64 (2 * n)) "" in
        Array.blit names 0 grown 0 n;
        intern_names := grown
      end;
      !intern_names.(id) <- domain;
      intern_count := id + 1;
      id

let interned_domains () = !intern_count

(* [String.lowercase_ascii] always copies; the simulator's generated
   domains are already lowercase, so skip the copy when nothing would
   change. *)
let has_upper s =
  let n = String.length s in
  let rec go i = i < n && ((s.[i] >= 'A' && s.[i] <= 'Z') || go (i + 1)) in
  go 0

let lowercase_if_needed s = if has_upper s then String.lowercase_ascii s else s

let valid_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '+' || c = '-'

let rec valid_chars s i stop = i >= stop || (valid_char (String.unsafe_get s i) && valid_chars s (i + 1) stop)

(* [s.[i..stop-1]] is a valid local part or domain. *)
let valid_part s i stop = i < stop && valid_chars s i stop

let v ~local ~domain =
  if not (valid_part local 0 (String.length local)) then
    invalid_arg (Printf.sprintf "Address.v: invalid local part %S" local);
  if not (valid_part domain 0 (String.length domain)) then
    invalid_arg (Printf.sprintf "Address.v: invalid domain %S" domain);
  let domain = lowercase_if_needed domain in
  { local; domain; domain_id = intern_domain domain }

let unsafe_of_parts ~local ~domain ~domain_id = { local; domain; domain_id }

let rec index_at s i stop = if i >= stop || String.unsafe_get s i = '@' then i else index_at s (i + 1) stop

let rec has_upper_in s i stop =
  i < stop
  && (let c = String.unsafe_get s i in
      (c >= 'A' && c <= 'Z') || has_upper_in s (i + 1) stop)

let sub_error what s pos len = Error (Printf.sprintf "%s in %S" what (String.sub s pos len))

(* The slice is read in place; only the parts of a valid address are
   copied out (the domain lowercased when it has uppercase letters). *)
let of_sub s ~pos ~len =
  let stop = pos + len in
  if pos < 0 || len < 0 || stop > String.length s then invalid_arg "Address.of_sub";
  let at = index_at s pos stop in
  if at = stop then sub_error "missing '@'" s pos len
  else if index_at s (at + 1) stop < stop then sub_error "multiple '@'" s pos len
  else if not (valid_part s pos at) then sub_error "invalid local part" s pos len
  else if not (valid_part s (at + 1) stop) then sub_error "invalid domain" s pos len
  else
    let domain = String.sub s (at + 1) (stop - at - 1) in
    let domain = if has_upper_in s (at + 1) stop then String.lowercase_ascii domain else domain in
    Ok { local = String.sub s pos (at - pos); domain; domain_id = intern_domain domain }

let of_string s = of_sub s ~pos:0 ~len:(String.length s)

(* Index of the ['@'] that ends a run of valid local-part characters
   starting at [i], or -1. *)
let rec local_end s i stop =
  if i >= stop then -1
  else
    match String.unsafe_get s i with
    | '@' -> i
    | c -> if valid_char c then local_end s (i + 1) stop else -1

let rec lowercase_domain_chars s i stop =
  i >= stop
  || (let c = String.unsafe_get s i in
      valid_char c && (c < 'A' || c > 'Z') && lowercase_domain_chars s (i + 1) stop)

let of_rendering s ~pos ~len =
  let stop = pos + len in
  let at = local_end s pos stop in
  if at <= pos || at + 1 >= stop || not (lowercase_domain_chars s (at + 1) stop)
  then None
  else
    let domain = String.sub s (at + 1) (stop - at - 1) in
    Some { local = String.sub s pos (at - pos); domain; domain_id = intern_domain domain }

let of_string_exn s =
  match of_string s with Ok a -> a | Error e -> invalid_arg ("Address.of_string_exn: " ^ e)

let to_string t = t.local ^ "@" ^ t.domain

let local t = t.local
let domain t = t.domain
let domain_id t = t.domain_id

let equal a b = a.domain_id = b.domain_id && String.equal a.local b.local

let compare a b =
  match String.compare a.domain b.domain with
  | 0 -> String.compare a.local b.local
  | c -> c

let hash t = Hashtbl.hash (t.local, t.domain)

let pp ppf t = Format.pp_print_string ppf (to_string t)
