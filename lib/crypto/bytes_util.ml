(* Byte-level helpers shared by all primitives: little-endian loads and
   stores, hex codecs, xor, and constant-time comparison.  The symmetric
   kernels load and store machine words through {!Word} instead. *)

let get_u8 b i = Char.code (Bytes.get b i)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

(* Little-endian 32-bit load into a native int (always non-negative). *)
let le32 b i =
  get_u8 b i
  lor (get_u8 b (i + 1) lsl 8)
  lor (get_u8 b (i + 2) lsl 16)
  lor (get_u8 b (i + 3) lsl 24)

let store_le32 b i v =
  set_u8 b i v;
  set_u8 b (i + 1) (v lsr 8);
  set_u8 b (i + 2) (v lsr 16);
  set_u8 b (i + 3) (v lsr 24)

let le64 b i = le32 b i lor (le32 b (i + 4) lsl 32)

let store_le64 b i v =
  store_le32 b i (v land 0xffffffff);
  store_le32 b (i + 4) ((v lsr 32) land 0xffffffff)

let xor_into ~src ~dst len =
  for i = 0 to len - 1 do
    set_u8 dst i (get_u8 dst i lxor get_u8 src i)
  done

(* Constant-time equality: accumulates differences so timing does not depend
   on where the first mismatch occurs.  Lengths are public. *)
let ct_equal a b =
  if Bytes.length a <> Bytes.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to Bytes.length a - 1 do
      acc := !acc lor (get_u8 a i lxor get_u8 b i)
    done;
    !acc = 0
  end

(* Constant-time equality over sub-ranges; bounds are checked eagerly so
   the loop can use unsafe accessors. *)
let unsafe_get_u8 b i = Char.code (Bytes.unsafe_get b i)

let ct_equal_sub a ~a_off b ~b_off ~len =
  if
    a_off < 0 || len < 0
    || a_off + len > Bytes.length a
    || b_off < 0
    || b_off + len > Bytes.length b
  then invalid_arg "Bytes_util.ct_equal_sub: range out of bounds";
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc :=
      !acc lor (unsafe_get_u8 a (a_off + i) lxor unsafe_get_u8 b (b_off + i))
  done;
  !acc = 0

let of_hex s =
  let s =
    String.concat "" (String.split_on_char ' ' s)
    |> String.split_on_char '\n'
    |> String.concat ""
  in
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Bytes_util.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytes_util.of_hex: bad digit"
  in
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    set_u8 out i ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1])
  done;
  out

let to_hex b =
  let n = Bytes.length b in
  let out = Buffer.create (2 * n) in
  for i = 0 to n - 1 do
    Buffer.add_string out (Printf.sprintf "%02x" (get_u8 b i))
  done;
  Buffer.contents out

let concat = Bytes.concat Bytes.empty

(* Zero-pad [b] on the right to [len] bytes; [b] must not exceed [len]. *)
let pad_to len b =
  let n = Bytes.length b in
  if n > len then invalid_arg "Bytes_util.pad_to: too long";
  let out = Bytes.make len '\000' in
  Bytes.blit b 0 out 0 n;
  out
