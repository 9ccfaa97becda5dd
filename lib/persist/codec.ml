exception Corrupt of string

module Crc32 = struct
  (* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) on native
     ints: every value stays within 32 bits, so nothing is boxed.
     Slicing-by-8: [tables] holds eight 256-entry tables back to back,
     table k mapping a byte to the CRC of that byte followed by k zero
     bytes, so one step folds eight input bytes with eight lookups.
     Table 0 is the usual byte-at-a-time table, which the tail (fewer
     than eight bytes) uses. *)
  let tables =
    let t = Array.make (8 * 256) 0 in
    for n = 0 to 255 do
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      t.(n) <- !c
    done;
    for k = 1 to 7 do
      for n = 0 to 255 do
        let c = t.(((k - 1) * 256) + n) in
        t.((k * 256) + n) <- t.(c land 0xff) lxor (c lsr 8)
      done
    done;
    t

  let sub ?(crc = 0) s ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Codec.Crc32.sub: range outside the string";
    let t = tables in
    let c = ref (crc lxor 0xFFFFFFFF) in
    let i = ref pos in
    let stop = pos + len in
    while !i + 8 <= stop do
      let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
      let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
      c :=
        Array.unsafe_get t ((7 * 256) + (lo land 0xff))
        lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
        lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
        lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
        lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
        lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
        lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
        lxor Array.unsafe_get t (hi lsr 24);
      i := !i + 8
    done;
    for j = !i to stop - 1 do
      c :=
        Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
        lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  let string ?crc s = sub ?crc s ~pos:0 ~len:(String.length s)
end

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let contents = Buffer.contents
  let length = Buffer.length

  let u8 w v =
    if v < 0 || v > 0xff then invalid_arg "Codec.W.u8: out of range";
    Buffer.add_char w (Char.chr v)

  let u32 w v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.W.u32: out of range";
    Buffer.add_char w (Char.chr (v land 0xff));
    Buffer.add_char w (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char w (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char w (Char.chr ((v lsr 24) land 0xff))

  let i64 w v = Buffer.add_int64_le w v
  let int w v = i64 w (Int64.of_int v)
  let bool w v = u8 w (if v then 1 else 0)
  let float w v = i64 w (Int64.bits_of_float v)

  let str w s =
    u32 w (String.length s);
    Buffer.add_string w s

  let opt f w = function
    | None -> u8 w 0
    | Some v ->
        u8 w 1;
        f w v

  let list f w l =
    u32 w (List.length l);
    List.iter (f w) l

  let array f w a =
    u32 w (Array.length a);
    Array.iter (f w) a

  let int_array w a = array int w a

  let pair fa fb w (a, b) =
    fa w a;
    fb w b
end

module R = struct
  type t = { input : string; mutable pos : int }

  let of_string input = { input; pos = 0 }
  let pos r = r.pos
  let remaining r = String.length r.input - r.pos

  let corrupt r msg = raise (Corrupt (Printf.sprintf "byte %d: %s" r.pos msg))

  let need r n =
    if n < 0 || remaining r < n then
      corrupt r (Printf.sprintf "truncated: need %d bytes, have %d" n (remaining r))

  let u8 r =
    need r 1;
    let v = Char.code r.input.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u32 r =
    need r 4;
    let b i = Char.code r.input.[r.pos + i] in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    r.pos <- r.pos + 4;
    v

  let i64 r =
    need r 8;
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (Char.code r.input.[r.pos + i]))
    done;
    r.pos <- r.pos + 8;
    !v

  let int r =
    let v = i64 r in
    if Int64.compare v (Int64.of_int max_int) > 0
       || Int64.compare v (Int64.of_int min_int) < 0
    then corrupt r (Printf.sprintf "int out of range: %Ld" v)
    else Int64.to_int v

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | v -> corrupt r (Printf.sprintf "bad bool tag %d" v)

  let float r = Int64.float_of_bits (i64 r)

  let str r =
    let n = u32 r in
    need r n;
    let s = String.sub r.input r.pos n in
    r.pos <- r.pos + n;
    s

  let opt f r =
    match u8 r with
    | 0 -> None
    | 1 -> Some (f r)
    | v -> corrupt r (Printf.sprintf "bad option tag %d" v)

  let list f r =
    let n = u32 r in
    (* Every element consumes at least one byte, so a huge length on a
       short input fails here instead of allocating. *)
    need r (min n (remaining r + 1));
    List.init n (fun _ -> f r)

  let array f r = Array.of_list (list f r)
  let int_array r = array int r

  let pair fa fb r =
    let a = fa r in
    let b = fb r in
    (a, b)

  let expect_end r =
    if remaining r <> 0 then
      corrupt r (Printf.sprintf "%d trailing bytes" (remaining r))
end

let to_string f v =
  let w = W.create () in
  f w v;
  W.contents w

let decode f s =
  match
    let r = R.of_string s in
    let v = f r in
    R.expect_end r;
    v
  with
  | v -> Ok v
  | exception Corrupt msg -> Error msg
