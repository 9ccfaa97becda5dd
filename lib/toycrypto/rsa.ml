type public = { n : int; e : int }
type secret = { n : int; d : int }

(* Multiplication mod m stays exact because m < 2^31 keeps products
   below 2^62. *)
let mod_mul a b m = a * b mod m

let mod_pow b e m =
  if m <= 1 then invalid_arg "Rsa.mod_pow: modulus must be > 1";
  let rec go b e acc =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mod_mul acc b m else acc in
      go (mod_mul b b m) (e lsr 1) acc
  in
  go (b mod m) e 1

let is_probable_prime rng n =
  if n < 2 then false
  else if n < 4 then true
  else if n land 1 = 0 then false
  else begin
    (* n - 1 = d * 2^r with d odd *)
    let r = ref 0 and d = ref (n - 1) in
    while !d land 1 = 0 do
      incr r;
      d := !d lsr 1
    done;
    let witness a =
      let x = ref (mod_pow a !d n) in
      if !x = 1 || !x = n - 1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to !r - 1 do
             x := mod_mul !x !x n;
             if !x = n - 1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec trial k =
      if k = 0 then true
      else
        let a = 2 + Sim.Rng.int rng (n - 3) in
        if witness a then false else trial (k - 1)
    in
    trial 20
  end

let random_prime rng ~bits =
  let lo = 1 lsl (bits - 1) in
  let rec draw () =
    let candidate = lo lor Sim.Rng.int rng lo lor 1 in
    if is_probable_prime rng candidate then candidate else draw ()
  in
  draw ()

let rec egcd a b = if b = 0 then (a, 1, 0) else
  let g, x, y = egcd b (a mod b) in
  (g, y, x - (a / b * y))

let mod_inverse a m =
  let g, x, _ = egcd a m in
  if g <> 1 then None else Some (((x mod m) + m) mod m)

let generate rng =
  let e = 65537 in
  let rec attempt () =
    let p = random_prime rng ~bits:15 in
    let q = random_prime rng ~bits:15 in
    if p = q then attempt ()
    else begin
      let n = p * q in
      let phi = (p - 1) * (q - 1) in
      match mod_inverse e phi with
      | None -> attempt ()
      | Some d -> ({ n; e }, ({ n; d } : secret))
    end
  in
  attempt ()

let key_id (pk : public) = pk.n

let digest_key = (0x7a69647369676e31L, 0x7a6d61696c736967L)

let digest_mod n msg =
  let h = Hash.siphash ~key:digest_key msg in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int n))

let sign (sk : secret) msg = mod_pow (digest_mod sk.n msg) sk.d sk.n

let verify_sig (pk : public) msg signature =
  signature >= 0 && signature < pk.n
  && mod_pow signature pk.e pk.n = digest_mod pk.n msg

let encrypt (pk : public) m =
  if m < 0 || m >= pk.n then invalid_arg "Rsa.encrypt: message out of range";
  mod_pow m pk.e pk.n

let decrypt (sk : secret) c = mod_pow c sk.d sk.n
