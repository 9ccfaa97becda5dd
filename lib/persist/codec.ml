exception Corrupt of string

module Crc32 = struct
  (* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the usual
     table-driven byte-at-a-time form, on native ints: every value
     stays within 32 bits, so nothing is boxed. *)
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)

  let sub ?(crc = 0) s ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Codec.Crc32.sub: range outside the string";
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      c :=
        Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
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
