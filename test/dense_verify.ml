(* The dense reference verifier: the §4.4 pair check as an O(n^2) scan
   over a full reported matrix.  The bank runs the sparse claim
   accumulator ([Audit.Verify]); this scan is the executable
   specification the tests compare it against.  [reported.(i)] is ISP
   [i]'s snapshot (rows for non-compliant ISPs are ignored); the result
   lists every inconsistent compliant pair with [isp_a < isp_b], in
   [Audit.Verify.violations] order.  Raises [Invalid_argument] on
   ragged input. *)

let verify ~reported ~compliant : Zmail.Credit.Audit.violation list =
  let n = Array.length compliant in
  if Array.length reported <> n then
    invalid_arg "Dense_verify.verify: reported size mismatch";
  Array.iteri
    (fun i row ->
      if compliant.(i) && Array.length row <> n then
        invalid_arg
          (Printf.sprintf "Dense_verify.verify: row %d has length %d, expected %d" i
             (Array.length row) n))
    reported;
  let violations = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if compliant.(a) && compliant.(b) then begin
        let discrepancy = reported.(a).(b) + reported.(b).(a) in
        if discrepancy <> 0 then
          violations := { Zmail.Credit.Audit.isp_a = a; isp_b = b; discrepancy } :: !violations
      end
    done
  done;
  List.rev !violations
