(* Byzantine member-bank behaviors.  Unlike the ISP adversaries in
   [Adversary] (balance-neutral report tampers), a Byzantine bank can
   move real money: it sits on the issuing side of the zero-sum
   argument.  Each behavior is paired with the check that catches it —
   see [verify_statements] and [bank_suspects]. *)
type bank_behavior =
  | Honest_bank
  | Over_issue of int
  | Skim_position of int
  | Lie_in_audit of int

type config = {
  n_banks : int;
  n_isps : int;
  home : int array;
  behaviors : bank_behavior array;
}

let default_config ~n_banks ~n_isps =
  {
    n_banks;
    n_isps;
    home = Array.init n_isps (fun i -> i mod n_banks);
    behaviors = Array.make n_banks Honest_bank;
  }

(* Each member is a full [Bank.t]: accounts, reply cache, keypair,
   buy/sell handler and audit round live there.  The federation keeps
   only its own books: the clearing ledger ([net_cleared],
   [seen_xfers]), what [Over_issue] banks handed back ([kickback] per
   ISP, [unbacked] per bank) and the member counts the fair shares are
   pro rata by. *)
type t = {
  config : config;
  compliant : bool array;
  banks : Bank.t array;
  key_ids : int array;  (* per member, for the foreign-bank check *)
  rewrite :
    (member:int -> isp:int -> (int * int) array -> (int * int) array) option;
      (* the [Lie_in_audit] members' row rewrite, if any member lies *)
  initial_account : int;
  kickback : int array;
      (* per ISP: pennies an [Over_issue] home bank handed back after
         debiting a buy, so the ISP's balance is its bank account plus
         this *)
  unbacked : int array;
      (* Ground truth of [Over_issue]: e-pennies issued without keeping
         the backing cash.  Never declared — the audit has to find
         it. *)
  net_cleared : int array;  (* net real pennies received via clearing *)
  seen_xfers : (int, unit) Hashtbl.t array;
      (* Clearing transfers already applied at each bank: the dedup
         half of exactly-once delivery over an at-least-once channel. *)
  members : int array;
  mutable close_now : (unit -> Bank.audit_result option) option;
      (* [close_round] over this federation, built once: a member's
         message path takes it without allocating a closure *)
  mutable next_xfer : int;
  mutable transfers_applied : int;
  mutable transfers_duplicate : int;
}

(* The federation-wide round closes once, when every member has
   collected its ISPs' replies. *)
let close_round t =
  if Array.for_all Bank.audit_collected t.banks then
    Some (Bank.close_round ?rewrite:t.rewrite t.banks)
  else None

let close_never = Some (fun () -> None)

(* A [Lie_in_audit] home bank rewrites its own members' rows against
   every foreign-homed compliant peer before they are checked: every
   cross-bank pair involving its members breaks antisymmetry, while
   intra-bank pairs stay clean — the block signature [bank_suspects]
   detects. *)
let lie_rewrite config compliant =
  if
    not
      (Array.exists (function Lie_in_audit _ -> true | _ -> false) config.behaviors)
  then None
  else
    Some
      (fun ~member ~isp row ->
        match config.behaviors.(member) with
        | Lie_in_audit d when config.home.(isp) = member ->
            let dense = Array.make config.n_isps 0 in
            Array.iter
              (fun (p, v) -> if p >= 0 && p < config.n_isps then dense.(p) <- dense.(p) + v)
              row;
            let lied = ref [] in
            for p = config.n_isps - 1 downto 0 do
              let foreign = p <> isp && compliant.(p) && config.home.(p) <> member in
              let v = if foreign then dense.(p) + d else dense.(p) in
              if foreign || v <> 0 then lied := (p, v) :: !lied
            done;
            Array.of_list !lied
        | Lie_in_audit _ | Honest_bank | Over_issue _ | Skim_position _ -> row)

let create ?(disk = fun _ -> None) ?compliant rng config =
  if config.n_banks <= 0 then invalid_arg "Federation.create: need at least one bank";
  if Array.length config.home <> config.n_isps then
    invalid_arg "Federation.create: home map size mismatch";
  if Array.length config.behaviors <> config.n_banks then
    invalid_arg "Federation.create: behavior map size mismatch";
  Array.iter
    (fun b ->
      if b < 0 || b >= config.n_banks then
        invalid_arg "Federation.create: home bank out of range")
    config.home;
  Array.iter
    (function
      | Over_issue d when d <= 0 ->
          invalid_arg "Federation.create: Over_issue needs a positive skim"
      | Skim_position d when d <= 0 ->
          invalid_arg "Federation.create: Skim_position needs a positive lie"
      | Lie_in_audit d when d = 0 ->
          invalid_arg "Federation.create: Lie_in_audit needs a non-zero delta"
      | _ -> ())
    config.behaviors;
  let compliant =
    match compliant with
    | Some c when Array.length c = config.n_isps -> c
    | Some _ -> invalid_arg "Federation.create: compliance map size mismatch"
    | None -> Array.make config.n_isps true
  in
  let member_config b =
    Bank.default_config ~n_isps:config.n_isps
      ~compliant:(Array.mapi (fun i h -> compliant.(i) && h = b) config.home)
  in
  let n = config.n_banks in
  let banks = Array.init n (fun b -> Bank.create ?disk:(disk b) rng (member_config b)) in
  let t =
    {
      config;
      compliant;
      banks;
      key_ids = Array.map (fun b -> Toycrypto.Rsa.key_id (Bank.public_key b)) banks;
      rewrite = lie_rewrite config compliant;
      initial_account = (Bank.default_config ~n_isps:config.n_isps ~compliant).initial_account;
      kickback = Array.make config.n_isps 0;
      unbacked = Array.make n 0;
      net_cleared = Array.make n 0;
      seen_xfers = Array.init n (fun _ -> Hashtbl.create 8);
      members =
        Array.init n (fun b ->
            Array.fold_left (fun k h -> if h = b then k + 1 else k) 0 config.home);
      close_now = None;
      next_xfer = 0;
      transfers_applied = 0;
      transfers_duplicate = 0;
    }
  in
  t.close_now <- Some (fun () -> close_round t);
  t

let n_banks t = t.config.n_banks
let bank t b = t.banks.(b)
let home_of t ~isp = t.config.home.(isp)
let public_key t ~bank = Bank.public_key t.banks.(bank)

let account_balance t ~isp =
  Bank.account_balance t.banks.(t.config.home.(isp)) ~isp + t.kickback.(isp)

let outstanding t ~bank = Bank.outstanding_epennies t.banks.(bank)

let total_outstanding t =
  Array.fold_left (fun acc b -> acc + Bank.outstanding_epennies b) 0 t.banks

(* A bank's till: what its members deposited for e-pennies net of
   buy-backs, less what an [Over_issue] bank handed back, plus what
   clearing brought in. *)
let cash t b = outstanding t ~bank:b - t.unbacked.(b) + t.net_cleared.(b)
let unbacked t ~bank = t.unbacked.(bank)

(* Every real penny is either in an ISP account or in some bank's till;
   clearing and even Byzantine issue move pennies around without
   creating any.  E19 asserts this total is unchanged at every step. *)
let total_money t =
  let accounts = ref 0 in
  for isp = 0 to t.config.n_isps - 1 do
    accounts := !accounts + account_balance t ~isp
  done;
  !accounts + Array.fold_left ( + ) 0 (Array.init t.config.n_banks (cash t))

(* Is [sealed] addressed to a real member bank other than [home]?  The
   recipient id is attacker-controlled plaintext, so this only picks
   the reason: such an envelope could not be opened at home anyway. *)
let foreign_member t home sealed =
  let rid = Toycrypto.Seal.recipient_id sealed in
  rid <> t.key_ids.(home) && Array.exists (Int.equal rid) t.key_ids

let open_round ?except t = Bank.start_round ?except t.banks

let on_isp_message ?(ready = true) t ~from_isp sealed =
  if from_isp < 0 || from_isp >= t.config.n_isps then Bank.Rejected Bank.Unknown_isp
  else begin
    let home = t.config.home.(from_isp) in
    let bank = t.banks.(home) in
    if foreign_member t home sealed then Bank.Rejected Bank.Foreign_bank
    else
      let before = Bank.account_balance bank ~isp:from_isp in
      let close = if ready then t.close_now else close_never in
      let response = Bank.on_isp_message ?close bank ~from_isp sealed in
      (* A Byzantine [Over_issue] bank issues the full amount of
         e-pennies but hands part of the debit back to the member (a
         kickback): unbacked issue the clearing audit must find.  Only
         an accepted first buy debits; a sell or a cached reply moves
         nothing here. *)
      (match (response, t.config.behaviors.(home)) with
      | Bank.Reply _, Over_issue d ->
          let back = min d (before - Bank.account_balance bank ~isp:from_isp) in
          if back > 0 then begin
            t.kickback.(from_isp) <- t.kickback.(from_isp) + back;
            t.unbacked.(home) <- t.unbacked.(home) + back
          end
      | _, (Honest_bank | Over_issue _ | Skim_position _ | Lie_in_audit _) -> ());
      response
  end

(* ------------------------------------------------------------------ *)
(* Audit attribution                                                   *)
(* ------------------------------------------------------------------ *)

(* The ISPs a round checked: compliant and not absent. *)
let present t (result : Bank.audit_result) =
  Array.mapi (fun i c -> c && not (List.mem i result.absent)) t.compliant

(* Which member banks explain the violation pattern?  A lying home bank
   tampers every member row against every foreign peer, so {e all} its
   members' cross-bank pairs break while its intra-bank pairs stay
   clean.  A single lying ISP breaks its own pairs only — including
   intra-bank ones — so it never produces this block signature (except
   in the degenerate one-member-bank case, where bank and member are
   indistinguishable anyway). *)
let bank_suspects t (result : Bank.audit_result) =
  let home i = t.config.home.(i) in
  let cross (v : Credit.Audit.violation) = home v.isp_a <> home v.isp_b in
  let present = present t result in
  let checked = List.filter (Array.get present) (List.init t.config.n_isps Fun.id) in
  List.filter
    (fun b ->
      let members = List.filter (fun i -> home i = b) checked in
      let foreigners = List.filter (fun i -> home i <> b) checked in
      let cross_pairs = List.length members * List.length foreigners in
      let broken_cross =
        List.length
          (List.filter
             (fun (v : Credit.Audit.violation) ->
               cross v && (home v.isp_a = b || home v.isp_b = b))
             result.violations)
      in
      let broken_intra =
        List.exists
          (fun (v : Credit.Audit.violation) ->
            (not (cross v)) && home v.isp_a = b)
          result.violations
      in
      cross_pairs > 0 && broken_cross = cross_pairs && not broken_intra)
    (List.init t.config.n_banks (fun b -> b))

(* Re-attribute: with the suspected banks' cross-bank pairs explained
   by the bank lie, who is still a suspect?  Intra-bank violations (a
   genuinely cheating member) survive the filter. *)
let suspects_excluding_banks t (result : Bank.audit_result) ~banks =
  let home i = t.config.home.(i) in
  let explained (v : Credit.Audit.violation) =
    home v.isp_a <> home v.isp_b
    && (List.mem (home v.isp_a) banks || List.mem (home v.isp_b) banks)
  in
  let remaining = List.filter (fun v -> not (explained v)) result.violations in
  if remaining = [] then []
  else Credit.Audit.suspects ~compliant:(present t result) remaining

(* ------------------------------------------------------------------ *)
(* Clearing statements                                                 *)
(* ------------------------------------------------------------------ *)

type statement = {
  st_bank : int;
  st_outstanding : int;
  st_cash : int;
  st_net_cleared : int;
}

(* What each bank {e declares} at settlement time — behavior-shaped.
   [Over_issue] declares its true books (the lie is in the money);
   [Skim_position] inflates cash {e and} outstanding issue
   consistently, defeating the self-check but not the member-deposit
   cross-check. *)
let statements t =
  List.init t.config.n_banks (fun b ->
      let base =
        { st_bank = b; st_outstanding = outstanding t ~bank:b; st_cash = cash t b;
          st_net_cleared = t.net_cleared.(b) }
      in
      match t.config.behaviors.(b) with
      | Skim_position d ->
          { base with st_cash = base.st_cash + d;
            st_outstanding = base.st_outstanding + d }
      | Honest_bank | Over_issue _ | Lie_in_audit _ -> base)

(* ISP-attested net deposits at bank [b]: every penny a bank holds
   (apart from clearing) came out of its own members' accounts, and the
   members know their balances from their §4.3 receipts. *)
let member_deposits t ~bank =
  let total = ref 0 in
  Array.iteri
    (fun isp b ->
      if b = bank then total := !total + (t.initial_account - account_balance t ~isp))
    t.config.home;
  !total

(* Two checks per statement.  Self-consistency: collected cash net of
   clearing must equal the outstanding liability (catches a bank whose
   money and books disagree — [Over_issue] declaring true books).
   Deposit cross-check: declared cash net of clearing must equal what
   the bank's own members attest to having paid in (catches a
   consistent liar inflating both sides — [Skim_position]). *)
let verify_statements t stmts =
  List.filter_map
    (fun s ->
      let holdings = s.st_cash - s.st_net_cleared in
      if holdings <> s.st_outstanding then
        Some (s.st_bank, "books do not balance (cash vs. liability)")
      else if holdings <> member_deposits t ~bank:s.st_bank then
        Some (s.st_bank, "declared cash contradicts member deposits")
      else None)
    stmts

(* ------------------------------------------------------------------ *)
(* Clearing                                                            *)
(* ------------------------------------------------------------------ *)

(* Each bank's fair share of the federation float is pro rata by member
   count (remainders to the lowest indices, deterministically). *)
let fair_shares t =
  let total = total_outstanding t in
  let members_total = Array.fold_left ( + ) 0 t.members in
  if members_total = 0 then Array.make t.config.n_banks 0
  else begin
    let shares = Array.map (fun m -> total * m / members_total) t.members in
    let distributed = Array.fold_left ( + ) 0 shares in
    let remainder = total - distributed in
    let give = if remainder >= 0 then 1 else -1 in
    for k = 0 to abs remainder - 1 do
      shares.(k mod t.config.n_banks) <- shares.(k mod t.config.n_banks) + give
    done;
    shares
  end

let position t ~bank = cash t bank - (fair_shares t).(bank)

(* Plan the transfers bringing every included bank's position to the
   included subset's mean (deterministic remainders to the lowest
   indices).  With nobody excluded the positions sum to zero, the mean
   is zero, and this is the classic "zero every position" clearing; a
   flagged bank's surplus or deficit is frozen with it, and the honest
   rest still equalize among themselves, conserving money. *)
let settle_plan ?(exclude = []) ?(in_flight = []) t =
  let shares = fair_shares t in
  (* Treat the still-undelivered transfers of earlier rounds as already
     executed, so a lossy round is never planned twice. *)
  let adjust = Array.make t.config.n_banks 0 in
  List.iter
    (fun (from_bank, to_bank, amount) ->
      adjust.(from_bank) <- adjust.(from_bank) - amount;
      adjust.(to_bank) <- adjust.(to_bank) + amount)
    in_flight;
  let included =
    List.filter
      (fun b -> not (List.mem b exclude))
      (List.init t.config.n_banks (fun b -> b))
  in
  let k = List.length included in
  if k <= 1 then []
  else begin
    let pos = List.map (fun b -> (b, cash t b + adjust.(b) - shares.(b))) included in
    let total = List.fold_left (fun acc (_, p) -> acc + p) 0 pos in
    let q = total / k and r = total - (total / k * k) in
    let give = if r >= 0 then 1 else -1 in
    let targets =
      List.mapi (fun i (b, p) -> (b, p - (q + if i < abs r then give else 0))) pos
    in
    let debtors = List.filter (fun (_, s) -> s > 0) targets in
    let creditors = List.filter (fun (_, s) -> s < 0) targets in
    let transfers = ref [] in
    let creditors = ref (List.map (fun (b, s) -> (b, -s)) creditors) in
    List.iter
      (fun (from_bank, surplus) ->
        let remaining = ref surplus in
        while !remaining > 0 do
          match !creditors with
          | [] -> remaining := 0
          | (to_bank, need) :: rest ->
              let amount = min !remaining need in
              transfers := (from_bank, to_bank, amount) :: !transfers;
              remaining := !remaining - amount;
              creditors :=
                if need > amount then (to_bank, need - amount) :: rest else rest
        done)
      debtors;
    List.rev !transfers
  end

(* ------------------------------------------------------------------ *)
(* Clearing wire messages                                              *)
(* ------------------------------------------------------------------ *)

let next_xfer_id t =
  let id = t.next_xfer in
  t.next_xfer <- id + 1;
  id

let sign_transfer t ~from_bank ~to_bank ~amount ~xfer_id =
  Bank.sign t.banks.(from_bank) (Wire.Transfer { from_bank; to_bank; amount; xfer_id })

(* The cheque lands: debit and credit in one step, so the federation's
   total cash is identical before, during and after any clearing round,
   however lossy the channel that carried the instruction.  A duplicate
   is acked again and applies nothing. *)
let receive_transfer t (msg : Wire.signed) =
  match msg.Wire.payload with
  | Wire.Transfer { from_bank; to_bank; amount; xfer_id }
    when from_bank >= 0 && from_bank < t.config.n_banks
         && to_bank >= 0 && to_bank < t.config.n_banks && from_bank <> to_bank -> (
      match Wire.verify_from_bank (public_key t ~bank:from_bank) msg with
      | None -> Error Bank.Unreadable
      | Some _ ->
          if Hashtbl.mem t.seen_xfers.(to_bank) xfer_id then
            t.transfers_duplicate <- t.transfers_duplicate + 1
          else begin
            Hashtbl.replace t.seen_xfers.(to_bank) xfer_id ();
            t.net_cleared.(from_bank) <- t.net_cleared.(from_bank) - amount;
            t.net_cleared.(to_bank) <- t.net_cleared.(to_bank) + amount;
            t.transfers_applied <- t.transfers_applied + 1
          end;
          Ok (xfer_id, Bank.sign t.banks.(to_bank) (Wire.Transfer_ack { xfer_id })))
  | Wire.Transfer _ -> Error Bank.Unreadable
  | _ -> Error Bank.Wrong_state

let transfer_applied t ~to_bank ~xfer_id = Hashtbl.mem t.seen_xfers.(to_bank) xfer_id

let receive_ack t ~to_bank (msg : Wire.signed) =
  if to_bank < 0 || to_bank >= t.config.n_banks then Error Bank.Unreadable
  else
    match Wire.verify_from_bank (public_key t ~bank:to_bank) msg with
    | Some (Wire.Transfer_ack { xfer_id }) -> Ok xfer_id
    | Some _ -> Error Bank.Wrong_state
    | None -> Error Bank.Unreadable

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = { transfers_applied : int; transfers_duplicate : int }

let stats (t : t) =
  { transfers_applied = t.transfers_applied; transfers_duplicate = t.transfers_duplicate }
