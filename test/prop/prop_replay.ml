(* Replay dedup over every alias of an onion's key.  X25519 ignores bit
   255 of a u-coordinate, and a server's clamped scalar is a multiple of
   8, so an onion keyed by u(P) peels to the same inner onion under the
   same layer secret when keyed by u(P + T) for any of the 8 points T of
   order dividing 8, with bit 255 set or clear: 16 encodings.  An honest
   server fed all 16, in random order and random chunks, at any chain
   position and for either round kind, must admit exactly one and count
   the other 15 as duplicates. *)

open Vuvuzela_crypto
open Vuvuzela_mixnet
open Vuvuzela

(* An order-8 point (one of the low-order points in prop_x25519.ml): its
   multiples are the 8 points of order dividing 8. *)
let order8 =
  Option.get
    (Edwards25519.of_montgomery_u
       (Bytes_util.of_hex
          "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"))

(* u(P + k·order8) for k = 0..7, where u = u(P). *)
let orbit u =
  let p = Option.get (Edwards25519.of_montgomery_u u) in
  List.init 8 (fun _ ->
      let v = Edwards25519.montgomery_u p in
      Edwards25519.add p order8;
      v)

let chains =
  lazy
    (List.map
       (fun jobs ->
         Chain.of_config
           Config.(default |> with_seed "prop-replay" |> with_jobs jobs))
       [ 1; 2 ])

type case = {
  chain : Chain.t;
  position : int;
  kind : Round.kind;
  round : int;
  copies : bytes array;  (* the 16 encodings, shuffled *)
  cuts : int list;  (* chunk boundaries *)
}

let gen_case rng =
  let chains = Lazy.force chains in
  let chain = List.nth chains (Drbg.uniform ~rng (List.length chains)) in
  let position = Drbg.uniform ~rng (Chain.length chain) in
  let kind =
    if Drbg.uniform ~rng 2 = 0 then Round.Conversation else Round.Dialing
  in
  let round = 1 + Drbg.uniform ~rng 1000 in
  let payload =
    match kind with
    | Round.Conversation -> Drbg.bytes ~rng Types.exchange_payload_len
    | Round.Dialing -> Dialing.noop ~rng ()
  in
  let server_pks =
    List.filteri (fun i _ -> i >= position) (Chain.public_keys chain)
  in
  let onion = (Onion.wrap ~rng ~server_pks ~round payload).onion in
  let u = Bytes.sub onion 0 Curve25519.key_len in
  let keyed key =
    let copy = Bytes.copy onion in
    Bytes.blit key 0 copy 0 Curve25519.key_len;
    copy
  in
  let copies =
    Array.of_list
      (List.concat_map
         (fun v ->
           let top = Bytes.copy v in
           Bytes_util.set_u8 top 31 (Bytes_util.get_u8 v 31 lor 0x80);
           [ keyed v; keyed top ])
         (orbit u))
  in
  let copies = Shuffle.apply (Shuffle.random_permutation ~rng 16) copies in
  let cuts =
    List.sort_uniq compare
      (List.init (Drbg.uniform ~rng 4) (fun _ -> 1 + Drbg.uniform ~rng 15))
  in
  { chain; position; kind; round; copies; cuts }

let run () =
  Prop.suite "replay dedup over key aliases";
  Prop.check ~name:"one admitted copy per 16-encoding orbit" ~count:120
    gen_case (fun c ->
      let distinct =
        List.length (List.sort_uniq Bytes.compare (Array.to_list c.copies))
      in
      Prop.require (distinct = 16) "orbit has %d distinct encodings" distinct;
      let server = Chain.server c.chain c.position in
      let m = Server.metrics server in
      let dups = m.Server.duplicate_requests
      and invalid = m.Server.invalid_requests in
      let st = Server.stream server ~kind:c.kind ~round:c.round in
      let from =
        List.fold_left
          (fun from cut ->
            Server.stream_feed server st (Array.sub c.copies from (cut - from));
            cut)
          0 c.cuts
      in
      Server.stream_feed server st (Array.sub c.copies from (16 - from));
      let dups = m.Server.duplicate_requests - dups
      and invalid = m.Server.invalid_requests - invalid in
      Prop.require
        (dups = 15 && invalid = 0)
        "position %d, %s round %d, cuts [%s]: %d duplicates, %d invalid"
        c.position
        (if c.kind = Round.Dialing then "dialing" else "conversation")
        c.round
        (String.concat ";" (List.map string_of_int c.cuts))
        dups invalid);
  List.iter Chain.shutdown (Lazy.force chains)
