(* E22: domain-parallel determinism — the merge protocol's central
   claim, demonstrated rather than assumed.  Each scenario builds the
   same sharded world twice, steps one copy on a single domain and the
   other on [domains] domains (2 by default — never the machine's core
   count, which would make output machine-dependent), and byte-compares
   their full captures section by section.  A partition scenario
   straddles a merge barrier on purpose: shard-local chaos spanning a
   barrier is exactly where a racy merge would first diverge.

   Everything printed is deterministic; like E17's sharded variant,
   the actual domain count goes to stderr only. *)

let hour = Sim.Engine.hour

type scenario = {
  label : string;
  groups : int;
  isps_per_group : int;
  users_per_isp : int;
  days : float;
  cross_fraction : float;
  partitions : int -> Sim.Fault.Mesh.partition list;
}

let scenarios =
  [
    {
      label = "baseline 4x4x50";
      groups = 4;
      isps_per_group = 4;
      users_per_isp = 50;
      days = 2.0;
      cross_fraction = 0.1;
      partitions = (fun _ -> []);
    };
    {
      label = "heavy cross traffic";
      groups = 4;
      isps_per_group = 4;
      users_per_isp = 50;
      days = 2.0;
      cross_fraction = 0.4;
      partitions = (fun _ -> []);
    };
    {
      label = "partition straddles barrier";
      groups = 4;
      isps_per_group = 4;
      users_per_isp = 50;
      days = 2.0;
      cross_fraction = 0.1;
      partitions =
        (function
        (* Group 0 loses ISPs 2-3 from 11.5 h to 12.5 h: the window
           spans the t = 12 h merge barrier. *)
        | 0 ->
            [ Sim.Fault.Mesh.partition ~start:(11.5 *. hour)
                ~stop:(12.5 *. hour)
                ~groups:[| 0; 0; 1; 1; 0 |] ]
        | _ -> []);
    };
  ]

let build sc ~seed =
  Zmail.Parworld.create
    {
      (Zmail.Parworld.default_config ~groups:sc.groups
         ~isps_per_group:sc.isps_per_group ~users_per_isp:sc.users_per_isp)
      with
      Zmail.Parworld.seed;
      days = sc.days;
      cross_fraction = sc.cross_fraction;
      partitions = sc.partitions;
    }

(* First differing section name, or None when byte-identical. *)
let first_diff a b =
  if List.length a <> List.length b then Some "<section count>"
  else
    List.fold_left2
      (fun acc (na, ba) (nb, bb) ->
        match acc with
        | Some _ -> acc
        | None ->
            if na <> nb then Some "<section order>"
            else if not (String.equal ba bb) then Some na
            else None)
      None a b

let run ?obs:_ ?persist:_ ?(seed = 22) ?(domains = 2) () =
  Printf.eprintf "e22: multi-domain legs stepping on %d domain(s)%s\n%!"
    domains
    (if Sim.Domainpool.available then "" else " (sequential fallback)");
  let table =
    Sim.Table.create
      ~title:
        "E22 (parallel determinism): multi-domain stepping is byte-identical \
         to single-domain for the same seed (captures compared section by \
         section; windows every 12 h aligned to audits)"
      ~columns:
        [
          "scenario";
          "groups";
          "users";
          "cross sent";
          "barriers";
          "delivered";
          "events";
          "audits";
          "residue";
        ]
  in
  List.iter
    (fun sc ->
      let single = build sc ~seed in
      Zmail.Parworld.run single ~domains:1;
      let multi = build sc ~seed in
      Zmail.Parworld.run multi ~domains;
      let cap_single = Zmail.Parworld.capture single in
      let cap_multi = Zmail.Parworld.capture multi in
      Option.iter
        (fun section ->
          failwith
            (Printf.sprintf
               "E22 %s: the %d-domain capture differs from the single-domain \
                one, first in section %s"
               sc.label domains section))
        (first_diff cap_single cap_multi);
      Sim.Table.add_row table
        [
          sc.label;
          Sim.Table.cell_int sc.groups;
          Sim.Table.cell_int
            (sc.groups * sc.isps_per_group * sc.users_per_isp);
          Sim.Table.cell_int (Zmail.Parworld.cross_sent single);
          Sim.Table.cell_int (Zmail.Parworld.barriers single);
          Sim.Table.cell_int (Zmail.Parworld.ham_delivered single);
          Sim.Table.cell_int (Zmail.Parworld.events_fired single);
          Sim.Table.cell_int (Zmail.Parworld.audits single);
          Sim.Table.cell_int (Zmail.Parworld.residue single);
        ])
    scenarios;
  [ table ]
