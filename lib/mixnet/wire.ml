(* Binary wire format used for every message that crosses a link.
   Fixed-size framing matters for privacy: request and response sizes must
   be independent of user activity (§3.2), so encoders here are
   deliberately explicit about sizes. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Hard ceiling on any length this codec will honour — a single frame,
   a variable-length field, or a batch's total payload.  Shared with the
   TCP transport's [Frame] codec so a hostile length prefix is rejected
   the same way whether it arrives in-process or over a socket: with a
   typed error, never an attempted multi-gigabyte [Bytes.create].  64
   MiB comfortably holds the largest batch the paper's deployment ships
   (1M onions x ~few hundred bytes crosses links in per-server batches,
   not one frame) while staying far below anything allocable by
   accident. *)
let max_frame_len = 1 lsl 26

module Writer = struct
  type t = Buffer.t

  let create ?(size = 256) () = Buffer.create size
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let u64 t v =
    u32 t (v land 0xffffffff);
    u32 t ((v lsr 32) land 0xffffffff)

  let bytes_fixed t ~len b =
    if Bytes.length b <> len then
      error "Writer.bytes_fixed: expected %d bytes, got %d" len
        (Bytes.length b);
    Buffer.add_bytes t b

  let bytes_var t b =
    u32 t (Bytes.length b);
    Buffer.add_bytes t b

  let raw t b = Buffer.add_bytes t b
  let contents t = Buffer.to_bytes t
  let length = Buffer.length
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes data = { data; pos = 0 }
  let remaining t = Bytes.length t.data - t.pos

  let need t n =
    if remaining t < n then
      error "Reader: need %d bytes, have %d" n (remaining t)

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let lo = u8 t in
    lo lor (u8 t lsl 8)

  let u32 t =
    let lo = u16 t in
    lo lor (u16 t lsl 16)

  let u64 t =
    let lo = u32 t in
    lo lor (u32 t lsl 32)

  let bytes_fixed t len =
    if len > max_frame_len then
      error "Reader: length %d exceeds max frame (%d)" len max_frame_len;
    need t len;
    let b = Bytes.sub t.data t.pos len in
    t.pos <- t.pos + len;
    b

  let bytes_var t =
    let len = u32 t in
    if len > max_frame_len then
      error "Reader: length prefix %d exceeds max frame (%d)" len
        max_frame_len;
    bytes_fixed t len

  let rest t = bytes_fixed t (remaining t)

  let expect_end t =
    if remaining t <> 0 then error "Reader: %d trailing bytes" (remaining t)
end

(* Encode/decode wrappers that confine the exception. *)
let encode f =
  let w = Writer.create () in
  f w;
  Writer.contents w

let decode f b =
  try
    let r = Reader.of_bytes b in
    let v = f r in
    Reader.expect_end r;
    Ok v
  with Error msg -> Result.Error msg
