(* Differential suite gating the optimized ChaCha20: the one-loop
   fast path against the retained seed oracle [Chacha20_ref], over
   random (key, nonce, counter, length) with lengths straddling every
   block boundary the 64-byte/8-byte loop structure cares about, and
   offsets exercising the 8-byte-XOR tail.  The counters include
   0xffffffff so the 32-bit block-counter wraparound is compared against
   the oracle, not just assumed. *)

open Vuvuzela_crypto

let boundary_lens = [ 0; 1; 63; 64; 65; 127; 128; 8191 ]

let gen_key_nonce rng =
  let key = Drbg.generate rng 32 in
  let nonce = Drbg.generate rng Chacha20.nonce_len in
  (key, nonce)

(* Mix fixed edge counters (0, 1, wraparound neighbours) with uniform
   32-bit draws. *)
let gen_counter rng =
  match Drbg.uniform ~rng 6 with
  | 0 -> 0
  | 1 -> 1
  | 2 -> 2
  | 3 -> 0xffffffff
  | 4 -> 0xfffffffe
  | _ -> Drbg.uniform ~rng 0x100000000

let hex = Bytes_util.to_hex

let run () =
  Prop.suite "chacha20 fast path vs seed oracle";
  Prop.check ~name:"keystream fast = ref at boundary lengths" ~count:150
    (fun rng ->
      let key, nonce = gen_key_nonce rng in
      (key, nonce, gen_counter rng))
    (fun (key, nonce, counter) ->
      List.iter
        (fun len ->
          Prop.check_hex
            ~what:(Printf.sprintf "keystream len %d ctr %#x" len counter)
            (hex (Chacha20_ref.keystream ~key ~nonce ~counter len))
            (hex (Chacha20.keystream ~key ~nonce ~counter len)))
        boundary_lens);
  Prop.check ~name:"encrypt fast = ref at random lengths" ~count:400
    (fun rng ->
      let key, nonce = gen_key_nonce rng in
      let counter = gen_counter rng in
      let len = Drbg.uniform ~rng 1500 in
      (key, nonce, counter, Drbg.generate rng len))
    (fun (key, nonce, counter, pt) ->
      Prop.check_hex
        ~what:
          (Printf.sprintf "encrypt len %d ctr %#x" (Bytes.length pt) counter)
        (hex (Chacha20_ref.encrypt ~counter ~key ~nonce pt))
        (hex (Chacha20.encrypt ~counter ~key ~nonce pt));
      (* involution: encrypt . encrypt = id on the fast path *)
      Prop.require
        (Bytes.equal pt
           (Chacha20.encrypt ~counter ~key ~nonce
              (Chacha20.encrypt ~counter ~key ~nonce pt)))
        "encrypt not an involution (len %d)" (Bytes.length pt));
  Prop.check ~name:"xor_into at misaligned offsets = ref" ~count:400
    (fun rng ->
      let key, nonce = gen_key_nonce rng in
      let counter = gen_counter rng in
      let src_off = Drbg.uniform ~rng 8 in
      let dst_off = Drbg.uniform ~rng 8 in
      let len =
        match Drbg.uniform ~rng 4 with
        | 0 -> List.nth boundary_lens (Drbg.uniform ~rng 7)
        | _ -> Drbg.uniform ~rng 300
      in
      let src = Drbg.generate rng (src_off + len + 3) in
      (key, nonce, counter, src, src_off, dst_off, len))
    (fun (key, nonce, counter, src, src_off, dst_off, len) ->
      let dst = Bytes.make (dst_off + len + 5) '\x7e' in
      Chacha20.xor_into ~key ~nonce ~counter ~src ~src_off ~dst ~dst_off ~len;
      let expected =
        Chacha20_ref.encrypt ~counter ~key ~nonce (Bytes.sub src src_off len)
      in
      Prop.check_hex
        ~what:
          (Printf.sprintf "xor_into src_off %d dst_off %d len %d" src_off
             dst_off len)
        (hex expected)
        (hex (Bytes.sub dst dst_off len));
      (* bytes outside the destination range must be untouched *)
      Prop.require
        (Bytes.sub_string dst 0 dst_off = String.make dst_off '\x7e'
        && Bytes.sub_string dst (dst_off + len) 5 = String.make 5 '\x7e')
        "xor_into wrote outside its range (dst_off %d len %d)" dst_off len);
  Prop.check ~name:"keystream_into at offsets = ref" ~count:150
    (fun rng ->
      let key, nonce = gen_key_nonce rng in
      let counter = gen_counter rng in
      let off = Drbg.uniform ~rng 8 in
      let len = List.nth boundary_lens (Drbg.uniform ~rng 8) in
      (key, nonce, counter, off, len))
    (fun (key, nonce, counter, off, len) ->
      let buf = Bytes.make (off + len + 2) '\x11' in
      Chacha20.keystream_into ~key ~nonce ~counter buf ~off ~len;
      Prop.check_hex
        ~what:(Printf.sprintf "keystream_into off %d len %d" off len)
        (hex (Chacha20_ref.keystream ~key ~nonce ~counter len))
        (hex (Bytes.sub buf off len));
      Prop.require
        (Bytes.sub_string buf 0 off = String.make off '\x11'
        && Bytes.sub_string buf (off + len) 2 = "\x11\x11")
        "keystream_into wrote outside its range (off %d len %d)" off len);
  (* Deterministic wraparound pin: a stream beginning at the last 32-bit
     block counter must continue exactly like the oracle's (which wraps
     back to block 0). *)
  Prop.vector ~name:"counter 0xffffffff wraparound (fast = ref)" (fun () ->
      let key = Bytes.init 32 (fun i -> Char.chr (i * 7 land 0xff)) in
      let nonce = Bytes.init 12 (fun i -> Char.chr (0x30 + i)) in
      List.iter
        (fun counter ->
          let len = 192 in
          Prop.check_hex
            ~what:(Printf.sprintf "wraparound ctr %#x" counter)
            (hex (Chacha20_ref.keystream ~key ~nonce ~counter len))
            (hex (Chacha20.keystream ~key ~nonce ~counter len)))
        [ 0xffffffff; 0xfffffffe ])
