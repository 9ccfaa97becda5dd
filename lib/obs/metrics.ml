module Stats = Sim.Stats

type instrument =
  | Counter of Stats.Counter.t
  | Gauge of (unit -> float)
  | Summary of Stats.Summary.t
  | Series of Stats.Series.t

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Summary _ -> "summary"
  | Series _ -> "series"

let wrong_kind name have want =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name have) want)

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c
  | Some inst -> wrong_kind name inst "counter"
  | None ->
      let c = Stats.Counter.create name in
      Hashtbl.replace t.table name (Counter c);
      c

let adopt_counter t ?name c =
  let name = match name with Some n -> n | None -> Stats.Counter.name c in
  match Hashtbl.find_opt t.table name with
  | Some (Counter existing) when existing == c -> ()
  | Some inst -> wrong_kind name inst "counter (adopt)"
  | None -> Hashtbl.replace t.table name (Counter c)

let gauge t name f =
  (match Hashtbl.find_opt t.table name with
  | Some (Gauge _) | None -> ()
  | Some inst -> wrong_kind name inst "gauge");
  Hashtbl.replace t.table name (Gauge f)

let summary t name =
  match Hashtbl.find_opt t.table name with
  | Some (Summary s) -> s
  | Some inst -> wrong_kind name inst "summary"
  | None ->
      let s = Stats.Summary.create () in
      Hashtbl.replace t.table name (Summary s);
      s

let series t name =
  match Hashtbl.find_opt t.table name with
  | Some (Series s) -> s
  | Some inst -> wrong_kind name inst "series"
  | None ->
      let s = Stats.Series.create name in
      Hashtbl.replace t.table name (Series s);
      s

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.table []
  |> List.sort compare

let to_table t =
  let tbl =
    Sim.Table.create ~title:"metrics" ~columns:[ "metric"; "kind"; "value"; "detail" ]
  in
  List.iter
    (fun name ->
      let inst = Hashtbl.find t.table name in
      let value, detail =
        match inst with
        | Counter c -> (Sim.Table.cell_int (Stats.Counter.value c), "")
        | Gauge f -> (Sim.Table.cell (f ()), "")
        | Summary s ->
            if Stats.Summary.count s = 0 then ("0", "empty")
            else
              ( Sim.Table.cell (Stats.Summary.mean s),
                Printf.sprintf "n=%d sd=%s min=%s max=%s"
                  (Stats.Summary.count s)
                  (Sim.Table.cell (Stats.Summary.stddev s))
                  (Sim.Table.cell (Stats.Summary.min s))
                  (Sim.Table.cell (Stats.Summary.max s)) )
        | Series s -> (
            ( Sim.Table.cell_int (Stats.Series.length s),
              match Stats.Series.last s with
              | Some (time, v) ->
                  Printf.sprintf "last=%s @ %s" (Sim.Table.cell v)
                    (Sim.Table.cell time)
              | None -> "empty" ))
      in
      Sim.Table.add_row tbl [ name; kind_name inst; value; detail ])
    (names t);
  tbl
