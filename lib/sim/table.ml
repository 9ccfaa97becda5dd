type t = {
  caption : string;
  header : string list;
  mutable body : string list list;
}

let create ~title ~columns = { caption = title; header = columns; body = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg
      (Printf.sprintf "Table.add_row (%s): expected %d cells, got %d"
         t.caption (List.length t.header) (List.length row));
  t.body <- row :: t.body

let title t = t.caption
let columns t = t.header
let rows t = List.rev t.body

let cell v = Printf.sprintf "%.4g" v
let cell_int v = string_of_int v
let cell_pct v = Printf.sprintf "%.2f%%" (100. *. v)
let cell_money v = Printf.sprintf "$%.2f" v

let pp ppf t =
  let all = t.header :: rows t in
  let arity = List.length t.header in
  let widths = Array.make arity 0 in
  let account row =
    List.iteri
      (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell))
      row
  in
  List.iter account all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let render row = String.concat "  " (List.mapi pad row) in
  Format.fprintf ppf "== %s ==@." t.caption;
  Format.fprintf ppf "%s@." (render t.header);
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  Format.fprintf ppf "%s@." rule;
  List.iter (fun row -> Format.fprintf ppf "%s@." (render row)) (rows t)

let print t =
  Format.printf "%a@." pp t
