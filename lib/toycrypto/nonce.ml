type t = { rng : Sim.Rng.t; mutable counter : int }

let create rng = { rng = Sim.Rng.split rng; counter = 0 }

let next t =
  t.counter <- t.counter + 1;
  let random_low = Int64.logand (Sim.Rng.int64 t.rng) 0xFFFFFFFFL in
  Int64.logor (Int64.shift_left (Int64.of_int t.counter) 32) random_low

let count t = t.counter

let encode_state w t =
  Sim.Rng.encode_state w t.rng;
  Persist.Codec.W.int w t.counter

let restore_state r t =
  Sim.Rng.restore_state r t.rng;
  t.counter <- Persist.Codec.R.int r
