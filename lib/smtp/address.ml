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

let interned_domain id =
  if id < 0 || id >= !intern_count then
    invalid_arg "Address.interned_domain: unknown id";
  !intern_names.(id)

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

let valid_part s = s <> "" && String.for_all valid_char s

let v ~local ~domain =
  if not (valid_part local) then
    invalid_arg (Printf.sprintf "Address.v: invalid local part %S" local);
  if not (valid_part domain) then
    invalid_arg (Printf.sprintf "Address.v: invalid domain %S" domain);
  let domain = lowercase_if_needed domain in
  { local; domain; domain_id = intern_domain domain }

let unsafe_of_parts ~local ~domain ~domain_id = { local; domain; domain_id }

let of_string s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "missing '@' in %S" s)
  | Some i ->
      let local = String.sub s 0 i in
      let domain = String.sub s (i + 1) (String.length s - i - 1) in
      if String.contains domain '@' then Error (Printf.sprintf "multiple '@' in %S" s)
      else if not (valid_part local) then Error (Printf.sprintf "invalid local part in %S" s)
      else if not (valid_part domain) then Error (Printf.sprintf "invalid domain in %S" s)
      else
        let domain = lowercase_if_needed domain in
        Ok { local; domain; domain_id = intern_domain domain }

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
