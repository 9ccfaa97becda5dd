type t = {
  id : string;
  title : string;
  claim : string;
  run :
    full:bool ->
    seed:int ->
    obs:Obs.Run.t ->
    persist:Checkpoint.t ->
    domains:int option ->
    Sim.Table.t list;
}

let all =
  [
    {
      id = "e1";
      title = "Spam market equilibrium vs per-message price";
      claim =
        "§1.2: spam cost rises by at least two orders of magnitude; the \
         break-even response rate rises similarly; spam volume decreases \
         substantially.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E1_market.run ~seed ());
    };
    {
      id = "e2";
      title = "Zero-sum balances for normal users";
      claim =
        "§1.2: users who receive about as much as they send neither pay nor \
         profit, given an initial buffering balance.";
      run = (fun ~full:_ ~seed ~obs ~persist ~domains:_ -> E2_zero_sum.run ~obs ~persist ~seed ());
    };
    {
      id = "e3";
      title = "Misbehaving-ISP detection through the credit audit";
      claim = "§4.4: the bank can detect misbehaved ISPs from the credit arrays.";
      run = (fun ~full:_ ~seed ~obs ~persist ~domains:_ -> E3_detection.run ~obs ~persist ~seed ());
    };
    {
      id = "e4";
      title = "Bulk accounting cost vs SHRED";
      claim =
        "§2.3: Zmail handles payments in bulk so handling cost is small; \
         SHRED's per-payment cost can exceed the penny collected.";
      run = (fun ~full:_ ~seed ~obs ~persist ~domains:_ -> E4_accounting.run ~obs ~persist ~seed ());
    };
    {
      id = "e5";
      title = "Incremental deployment from two compliant ISPs";
      claim =
        "§1.3/§5: bootstrap with two compliant ISPs; positive feedback spreads \
         compliance.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E5_adoption.run ~seed ());
    };
    {
      id = "e6";
      title = "Zombie containment via daily limits";
      claim =
        "§5: a per-day spending limit bounds virus liability, blocks the \
         flood, and detects zombies via the warning.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E6_zombies.run ~seed ());
    };
    {
      id = "e7";
      title = "Mailing-list acknowledgments";
      claim =
        "§5: the automatic acknowledgment returns the e-penny to the \
         distributor and keeps the subscriber database clean.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E7_listserv.run ~seed ());
    };
    {
      id = "e8";
      title = "Filtering baselines vs economic suppression";
      claim =
        "§1.2/§2.2: filters suffer false positives and misspelling evasion; \
         Zmail needs no spam definition at all.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E8_filters.run ~seed ());
    };
    {
      id = "e9";
      title = "Sender-side cost: computational challenges vs e-pennies";
      claim =
        "§2.3: computational schemes make everyone slower; Zmail is free for \
         balanced users and expensive for bulk senders.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E9_sender_cost.run ~seed ());
    };
    {
      id = "e10";
      title = "Snapshot audits under live traffic";
      claim =
        "§4.4: the 10-minute freeze buffers user mail briefly and yields \
         consistent snapshots.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E10_snapshot.run ~seed ());
    };
    {
      id = "e11";
      title = "Replay and forgery attacks on the bank channel";
      claim = "§4.3: nonces prevent message replay attacks.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E11_replay.run ~seed ());
    };
    {
      id = "e13";
      title = "Ablation: audit period vs settlement cost and fraud exposure";
      claim =
        "§4.4 leaves the frequency open (\"once a week or once a month, for \
         example\"); this sweeps the trade-off.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E13_audit_period.run ~seed ());
    };
    {
      id = "e14";
      title = "Ablation: unpaid-mail policy during deployment";
      claim =
        "§5: accept, segregate/discard, or filter mail from non-compliant \
         ISPs — measured side by side.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E14_policies.run ~seed ());
    };
    {
      id = "e15";
      title = "Extension: distributed banks with clearing";
      claim =
        "§5 (Bank Setup): the bank \"can be implemented as a set of \
         distributed banks\"; this builds two and clears their imbalance.";
      run = (fun ~full:_ ~seed ~obs:_ ~persist:_ ~domains:_ -> E15_federation.run ~seed ());
    };
    {
      id = "e16";
      title = "Robustness: chaos on the ISP-bank channel";
      claim =
        "Implied by §4.3–§4.4: the nonce/audit protocol never depends on a \
         perfect bank link — under drops, duplicates, corruption, outages \
         and ISP crashes, money stays zero-sum and cheaters stay caught.";
      run = (fun ~full:_ ~seed ~obs ~persist ~domains:_ -> E16_chaos.run ~obs ~persist ~seed ());
    };
    {
      id = "e17";
      title = "Scale: zero-sum and detection at 10^4-10^5 users";
      claim =
        "§1.2/§4.4 at population scale: with Zipf-distributed senders across \
         100+ ISPs, money stays zero-sum (residue = cheat-minted), the audit \
         still flags the cheater and nobody else, and the run stays flat in \
         memory with retain_mail=false.";
      run =
        (fun ~full ~seed ~obs ~persist ~domains ->
          E17_scale.run ~obs ~persist ~seed ~million:full ?domains ());
    };
    {
      id = "e18";
      title = "Adversarial robustness: Byzantine ISPs under mesh chaos";
      claim =
        "§4.4 under adversity: ISPs that tamper with their audit reports \
         (understating debts, replaying stale arrays, dropping a peer's \
         cross-check) are implicated or convicted within two audit rounds \
         of a heal, honest ISPs are never convicted, and money stays \
         zero-sum even when partitions bounce and refund paid mail.";
      run =
        (fun ~full ~seed ~obs ~persist ~domains:_ ->
          E18_adversary.run ~obs ~persist ~seed ~full ());
    };
    {
      id = "e19";
      title = "Byzantine bank wire and chaos-hardened inter-bank clearing";
      claim =
        "§4.3/§5 under a hostile wire: an adversary owning an ISP-bank link \
         (forging, replaying, reordering, dropping) never gets an honest \
         ISP convicted and never moves money; a federation clearing over a \
         lossy, partitioned mesh conserves money exactly, drains its carry \
         after heal, and statement checks plus audit block-attribution \
         flag exactly the Byzantine member bank.";
      run =
        (fun ~full ~seed ~obs ~persist ~domains:_ ->
          E19_bank_wire.run ~obs ~persist ~seed ~full ());
    };
    {
      id = "e20";
      title = "Serving-path tail latency: admission, backpressure, SLOs";
      claim =
        "Implied by §2.3/§5 (\"the ISPs can handle payments efficiently\"): \
         the serving path — bounded admission queues feeding concurrent \
         SMTP sessions — holds per-class p99/p999 latency until offered \
         load crosses the service knee, degrades by refusing admissions \
         (backpressure, paid sends refunded) rather than by unbounded \
         queueing, keeps money exactly conserved in every cell, and under \
         mesh chaos the retry storm shows up as a Retried-class tail, not \
         as lost money.";
      run =
        (fun ~full ~seed ~obs ~persist ~domains:_ ->
          E20_serving.run ~obs ~persist ~seed ~full ());
    };
    {
      id = "e21";
      title = "Collusion rings vs the sparse cycle-sum audit detector";
      claim =
        "§4.4 against coalitions: colluding ISPs that balance their lies \
         around an honest victim evade any strict-majority rule, but the \
         cycle-sum detector on the sparse claim graph convicts every \
         coalition member — including one whose tampered report only \
         arrives after a partition heals — clears the framed victim, \
         never convicts an honest ISP, and leaves zero e-penny residue; \
         under --full the same holds at 10^4 ISPs, a scale only the \
         sparse rows can represent.";
      run =
        (fun ~full ~seed ~obs ~persist ~domains:_ ->
          E21_collusion.run ~obs ~persist ~seed ~full ());
    };
    {
      id = "e22";
      title = "Domain-parallel determinism: sharded stepping, byte-equal merge";
      claim =
        "Toward 10^7 users: disjoint ISP groups step on separate OCaml 5 \
         domains and interact only at epoch-aligned merge barriers (fixed \
         group order, per-shard RNG streams), so the multi-domain world is \
         byte-identical to the single-domain one for the same seed — \
         captures compare equal section by section, including when a \
         partition window straddles a merge barrier, and every shard \
         conserves money exactly.";
      run =
        (fun ~full:_ ~seed ~obs ~persist ~domains ->
          E22_parworld.run ~obs ~persist ~seed ?domains ());
    };
    {
      id = "e23";
      title = "Durable WAL billing under disk faults: crash-point sweep";
      claim =
        "Implied by §4.3's durable accounting: with billing state on \
         write-ahead logs over faulty storage (torn final appends, bit \
         rot on the torn fragment), crashing any ISP — or the bank — at \
         every event boundary and recovering by log replay conserves \
         money exactly (residue = cheat-minted, the no-double-billing \
         oracle), never abandons a log, and never convicts an honest \
         ISP.";
      run =
        (fun ~full ~seed ~obs ~persist ~domains:_ ->
          E23_crashpoint.run ~obs ~persist ~seed ~full ());
    };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> e.id = id) all

let print_experiment ~full ~seed ?obs ?persist ?domains e =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  Format.printf "---- %s: %s ----@." (String.uppercase_ascii e.id) e.title;
  Format.printf "claim: %s@.@." e.claim;
  List.iter Sim.Table.print (e.run ~full ~seed ~obs ~persist ~domains)

let check_domains = function
  | Some d when d < 1 ->
      Error (Printf.sprintf "--domains must be at least 1 (got %d)" d)
  | Some _ | None -> Ok ()

let run_all ?(seed = 0) ?(full = false) ?obs ?domains () =
  Result.map
    (fun () -> List.iter (print_experiment ~full ~seed ?obs ?domains) all)
    (check_domains domains)

let run_one ?(seed = 0) ?(full = false) ?obs ?persist ?domains id =
  match (find id, check_domains domains) with
  | _, (Error _ as e) -> e
  | Some e, Ok () ->
      print_experiment ~full ~seed ?obs ?persist ?domains e;
      Ok ()
  | None, Ok () -> Error (Printf.sprintf "unknown experiment %S (try e1..e23)" id)
