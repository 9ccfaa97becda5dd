type stamp = { recipient : string; nonce : int64; difficulty : int }

let stamp_key = (0x5a6b7c8d9eafb0c1L, 0x1122334455667788L)

let hash_attempt ~recipient nonce =
  Toycrypto.Hash.siphash_string ~key:stamp_key
    (recipient ^ ":" ^ Int64.to_string nonce)

let leading_zero_bits h =
  let rec count i =
    if i >= 64 then 64
    else if Int64.logand (Int64.shift_right_logical h (63 - i)) 1L = 1L then i
    else count (i + 1)
  in
  count 0

let valid ~recipient ~nonce ~difficulty =
  leading_zero_bits (hash_attempt ~recipient nonce) >= difficulty

let mint rng ~recipient ~difficulty =
  if difficulty < 0 || difficulty > 30 then
    invalid_arg "Hashcash.mint: difficulty must be in [0, 30]";
  let rec search nonce attempts =
    if valid ~recipient ~nonce ~difficulty then
      ({ recipient; nonce; difficulty }, attempts)
    else search (Int64.add nonce 1L) (attempts + 1)
  in
  search (Sim.Rng.int64 rng) 1

let verify s = valid ~recipient:s.recipient ~nonce:s.nonce ~difficulty:s.difficulty

let seconds_per_hash = 1e-7
