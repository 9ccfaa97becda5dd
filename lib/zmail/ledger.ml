type t = {
  account : int array;
  balance : int array;
  sent : int array;
  daily_limit : int;
  mutable avail : int;
}

type block = Insufficient_balance | Daily_limit_reached

let create ~n_users ~initial_balance ~initial_account ~daily_limit ~initial_avail =
  if n_users <= 0 then invalid_arg "Ledger.create: n_users must be positive";
  ignore (Epenny.check initial_balance);
  ignore (Epenny.check initial_avail);
  if initial_account < 0 then invalid_arg "Ledger.create: negative initial_account";
  if daily_limit < 0 then invalid_arg "Ledger.create: negative daily_limit";
  {
    account = Array.make n_users initial_account;
    balance = Array.make n_users initial_balance;
    sent = Array.make n_users 0;
    daily_limit;
    avail = initial_avail;
  }

let balance t ~user = t.balance.(user)
let account t ~user = t.account.(user)
let sent_today t ~user = t.sent.(user)
let avail t = t.avail

let check_send t ~user =
  if t.balance.(user) < 1 then Error Insufficient_balance
  else if t.sent.(user) >= t.daily_limit then Error Daily_limit_reached
  else Ok ()

let debit_send t ~user =
  match check_send t ~user with
  | Error _ as e -> e
  | Ok () ->
      t.balance.(user) <- t.balance.(user) - 1;
      t.sent.(user) <- t.sent.(user) + 1;
      Ok ()

let credit_receive t ~user = t.balance.(user) <- t.balance.(user) + 1

let user_buy t ~user ~amount =
  ignore (Epenny.check amount);
  if t.account.(user) < amount then Error "insufficient real-money account"
  else if t.avail < amount then Error "ISP pool has too few e-pennies"
  else begin
    t.account.(user) <- t.account.(user) - amount;
    t.balance.(user) <- t.balance.(user) + amount;
    t.avail <- t.avail - amount;
    Ok ()
  end

let user_sell t ~user ~amount =
  ignore (Epenny.check amount);
  if t.balance.(user) < amount then Error "insufficient e-penny balance"
  else begin
    t.balance.(user) <- t.balance.(user) - amount;
    t.account.(user) <- t.account.(user) + amount;
    t.avail <- t.avail + amount;
    Ok ()
  end

let add_pool t amount =
  ignore (Epenny.check amount);
  t.avail <- t.avail + amount

let take_pool t amount =
  ignore (Epenny.check amount);
  if t.avail < amount then Error "pool too small" else begin
    t.avail <- t.avail - amount;
    Ok ()
  end

let reset_daily t = Array.fill t.sent 0 (Array.length t.sent) 0

let encode_state w t =
  let open Persist.Codec.W in
  int_array w t.account;
  int_array w t.balance;
  int_array w t.sent;
  int w t.avail

let restore_state r t =
  let open Persist.Codec.R in
  let blit name dst =
    let src = int_array r in
    if Array.length src <> Array.length dst then
      corrupt r
        (Printf.sprintf "Ledger: %s has %d users, snapshot has %d" name
           (Array.length dst) (Array.length src));
    Array.blit src 0 dst 0 (Array.length dst)
  in
  blit "account" t.account;
  blit "balance" t.balance;
  blit "sent" t.sent;
  t.avail <- int r

let total_user_epennies t = Array.fold_left ( + ) 0 t.balance

let total_epennies t = total_user_epennies t + t.avail
