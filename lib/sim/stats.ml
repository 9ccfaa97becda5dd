module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable sum : float;
    mutable minimum : float;
    mutable maximum : float;
  }

  let create () =
    { n = 0; mean = 0.; m2 = 0.; sum = 0.; minimum = nan; maximum = nan }

  let add t x =
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.n = 1 then begin
      t.minimum <- x;
      t.maximum <- x
    end
    else begin
      if x < t.minimum then t.minimum <- x;
      if x > t.maximum then t.maximum <- x
    end

  let count t = t.n
  let total t = t.sum
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  (* Internally an empty summary's extrema are [nan] (and serialize as
     such — the snapshot byte format predates this guard), but the
     accessors return [0.] like [mean] so an empty or merged-with-empty
     summary never leaks [nan] into reports or derived metrics. *)
  let min t = if t.n = 0 then 0. else t.minimum
  let max t = if t.n = 0 then 0. else t.maximum

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean =
        a.mean +. (delta *. float_of_int b.n /. float_of_int n)
      in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n
            /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        sum = a.sum +. b.sum;
        minimum = Stdlib.min a.minimum b.minimum;
        maximum = Stdlib.max a.maximum b.maximum;
      }
    end

  let encode_state w t =
    let open Persist.Codec.W in
    int w t.n;
    float w t.mean;
    float w t.m2;
    float w t.sum;
    float w t.minimum;
    float w t.maximum
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    width : float;
    buckets : int array;
    mutable under : int;
    mutable over : int;
  }

  let create ~lo ~hi ~bins =
    if lo >= hi then invalid_arg "Histogram.create: lo must be < hi";
    if bins < 1 then invalid_arg "Histogram.create: bins must be >= 1";
    {
      lo;
      hi;
      width = (hi -. lo) /. float_of_int bins;
      buckets = Array.make bins 0;
      under = 0;
      over = 0;
    }

  let add t x =
    if x < t.lo then t.under <- t.under + 1
    else if x >= t.hi then t.over <- t.over + 1
    else begin
      let i = int_of_float ((x -. t.lo) /. t.width) in
      let i = Stdlib.min i (Array.length t.buckets - 1) in
      t.buckets.(i) <- t.buckets.(i) + 1
    end

  let count t = t.under + t.over + Array.fold_left ( + ) 0 t.buckets
  let underflow t = t.under
  let overflow t = t.over
  let bucket t i = t.buckets.(i)

  let quantile t q =
    if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q out of range";
    let total = count t in
    if total = 0 then nan
    else begin
      let target = q *. float_of_int total in
      if target <= float_of_int t.under then t.lo
      else begin
        let remaining = ref (target -. float_of_int t.under) in
        let result = ref t.hi in
        (try
           for i = 0 to Array.length t.buckets - 1 do
             let c = float_of_int t.buckets.(i) in
             if !remaining <= c && c > 0. then begin
               let frac = !remaining /. c in
               result := t.lo +. ((float_of_int i +. frac) *. t.width);
               raise Exit
             end;
             remaining := !remaining -. c
           done
         with Exit -> ());
        !result
      end
    end

  let encode_state w t =
    let open Persist.Codec.W in
    float w t.lo;
    float w t.hi;
    int_array w t.buckets;
    int w t.under;
    int w t.over
end

module Series = struct
  type t = { label : string; mutable samples : (float * float) list }

  let create label = { label; samples = [] }
  let name t = t.label
  let record t ~time v = t.samples <- (time, v) :: t.samples
  let length t = List.length t.samples
  let to_list t = List.rev t.samples

  let last t =
    match t.samples with [] -> None | sample :: _ -> Some sample

end

module Counter = struct
  type t = { label : string; mutable n : int }

  let create label = { label; n = 0 }
  let name t = t.label
  let incr ?(by = 1) t = t.n <- t.n + by
  let value t = t.n

  let encode_state w t =
    Persist.Codec.W.str w t.label;
    Persist.Codec.W.int w t.n
end
