(* Latency observations span five-plus decades (a 60 ms clean session
   to a multi-hour retry storm), so a linear histogram either loses the
   fast end or truncates the slow one.  Binning log10(seconds) keeps
   relative resolution constant: 180 bins over [1e-4 s, 1e5 s) is 20
   bins per decade, i.e. ~12% worst-case quantile error anywhere in
   range (see Slo). *)

let lo = -4.
let hi = 5.
let bins = 180

type t = Sim.Stats.Histogram.t

let create () = Sim.Stats.Histogram.create ~lo ~hi ~bins

(* Clamp at a picosecond so a zero/negative latency (there are none,
   but the type allows them) lands in the underflow bucket instead of
   producing a NaN. *)
let add t seconds = Sim.Stats.Histogram.add t (log10 (Float.max seconds 1e-12))

let count = Sim.Stats.Histogram.count

let quantile t q =
  if Sim.Stats.Histogram.count t = 0 then Float.nan
  else 10. ** Sim.Stats.Histogram.quantile t q

let encode_state = Sim.Stats.Histogram.encode_state
