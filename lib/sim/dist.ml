let bernoulli rng p =
  if p <= 0. then false
  else if p >= 1. then true
  else Rng.unit_float rng < p

let uniform rng ~lo ~hi =
  if lo > hi then invalid_arg "Dist.uniform: lo > hi";
  lo +. Rng.unit_float rng *. (hi -. lo)

let uniform_int rng ~lo ~hi =
  if lo > hi then invalid_arg "Dist.uniform_int: lo > hi";
  lo + Rng.int rng (hi - lo + 1)

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be positive";
  -.log1p (-.Rng.unit_float rng) /. rate

let normal rng ~mean ~stddev =
  (* Box-Muller; one variate per call keeps the sampler stateless. *)
  let u1 = 1. -. Rng.unit_float rng in
  let u2 = Rng.unit_float rng in
  mean +. (stddev *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

let pareto rng ~scale ~shape =
  if scale <= 0. || shape <= 0. then
    invalid_arg "Dist.pareto: scale and shape must be positive";
  scale /. ((1. -. Rng.unit_float rng) ** (1. /. shape))

let poisson_small rng mean =
  let limit = exp (-.mean) in
  let rec loop k p =
    let p = p *. Rng.unit_float rng in
    if p <= limit then k else loop (k + 1) p
  in
  loop 0 1.

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Dist.poisson: mean must be non-negative";
  if mean = 0. then 0
  else if mean <= 64. then poisson_small rng mean
  else
    let x = normal rng ~mean ~stddev:(sqrt mean) in
    Stdlib.max 0 (int_of_float (Float.round x))

let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: p must be in (0, 1]";
  if p = 1. then 0
  else
    let u = 1. -. Rng.unit_float rng in
    int_of_float (floor (log u /. log1p (-.p)))

(* The one tie-break rule shared by every table-based sampler here:
   select the first index whose cumulative weight STRICTLY exceeds [u].
   With [u] drawn uniformly from [0, total), a [u] landing exactly on a
   bucket edge [cdf.(i)] therefore selects bucket [i+1] — the half-open
   interval convention [ [cdf.(i-1), cdf.(i)) -> i ] — and a
   zero-weight bucket (whose cdf value equals its predecessor's) can
   never be selected.  The search clamps to the last index, so the
   result is in range even if rounding pushes [u] up to [total].
   Every draw runs this search: the annotation makes [>] a float
   compare instead of the polymorphic C primitive, and a local
   recursive [search] would capture [cdf]/[u] in a closure allocated
   per draw. *)
let rec search_over (cdf : float array) (u : float) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cdf.(mid) > u then search_over cdf u lo mid
    else search_over cdf u (mid + 1) hi

let first_over cdf u = search_over cdf u 0 (Array.length cdf - 1)

(* An exact guide table over a CDF, so a draw searches a bucket instead
   of the whole array.  [key x = truncate (x *. scale)], clamped to
   [0 .. n-1] (NaN to [n-1]), is monotone in [x] because [scale =
   n /. total] is positive.  [starts.(j)] is the first index whose cdf
   key is [>= j] ([n-1] if none) and [starts.(n) = n-1].  For
   [key u = j], every index before [starts.(j)] has a smaller key, so
   its cdf is [< u]; the index at [starts.(j+1)] has a larger key, so
   its cdf is [> u], or it is [n-1], where [first_over] clamps.  The
   answer [first_over cdf u] therefore lies in
   [starts.(j) .. starts.(j+1)], and [search_over] over that range
   returns it exactly: draws are bit-identical to the full search. *)
type guide = { cdf : float array; starts : int array; scale : float }

let[@inline] key (scale : float) (last : int) (x : float) =
  let f = x *. scale in
  if f < float_of_int last then if f >= 0. then truncate f else 0 else last

let guide cdf =
  let n = Array.length cdf in
  let scale = float_of_int n /. cdf.(n - 1) in
  let starts = Array.make (n + 1) (n - 1) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let k = key scale (n - 1) cdf.(i) in
    while !j <= k do
      starts.(!j) <- i;
      incr j
    done
  done;
  { cdf; starts; scale }

let guided g u =
  let j = key g.scale (Array.length g.cdf - 1) u in
  search_over g.cdf u g.starts.(j) g.starts.(j + 1)

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 1 to n do
    total := !total +. (1. /. (float_of_int k ** s));
    cdf.(k - 1) <- !total
  done;
  let total = !total in
  let g = guide cdf in
  fun rng ->
    let u = Rng.unit_float rng *. total in
    guided g u + 1

let categorical ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.categorical: empty weights";
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for i = 0 to n - 1 do
    if weights.(i) < 0. then invalid_arg "Dist.categorical: negative weight";
    total := !total +. weights.(i);
    cdf.(i) <- !total
  done;
  if !total <= 0. then invalid_arg "Dist.categorical: zero total weight";
  let total = !total in
  let g = guide cdf in
  fun rng ->
    let u = Rng.unit_float rng *. total in
    guided g u

module Internal = struct
  let first_over = first_over

  let guided_first_over cdf =
    let g = guide cdf in
    fun u -> guided g u
end
