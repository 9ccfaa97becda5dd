type amount = int

let dollars_per_epenny = 0.01

let to_dollars n = float_of_int n *. dollars_per_epenny

let check n =
  if n < 0 then invalid_arg (Printf.sprintf "Epenny.check: negative amount %d" n);
  n
