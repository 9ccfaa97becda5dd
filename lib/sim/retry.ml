type policy = { initial : float; factor : float; cap : float }

let policy ~initial ~factor ~cap =
  let finite name v =
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Retry: %s must be finite, got %g" name v)
  in
  finite "initial" initial;
  finite "factor" factor;
  finite "cap" cap;
  if initial < 0. then invalid_arg "Retry: initial must be non-negative";
  if factor < 1. then invalid_arg "Retry: factor must be at least 1";
  if cap < 0. then invalid_arg "Retry: cap must be non-negative";
  { initial; factor; cap }

(* [factor ** attempt] overflows to infinity for large attempts; the
   [min] then saturates at [cap].  Only [0 * inf] could produce NaN,
   hence the zero guard. *)
let delay p ~attempt =
  if attempt < 0 then invalid_arg "Retry.delay: negative attempt";
  if p.initial = 0. then 0.
  else Float.min (p.initial *. (p.factor ** float_of_int attempt)) p.cap

let until_settled engine p ?(on_resend = ignore) ~still send =
  let rec go attempt =
    send ();
    let timeout = delay p ~attempt in
    ignore
      (Engine.schedule_after engine ~delay:timeout (fun () ->
           if still () then begin
             on_resend timeout;
             go (attempt + 1)
           end))
  in
  if still () then go 0
