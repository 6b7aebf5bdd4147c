(* X25519 scalar multiplication (RFC 7748) over the shared Fe25519 field
   arithmetic: a Montgomery ladder (constant sequence of field operations
   per scalar bit) for a variable base, and Edwards25519's constant-time
   comb for a fixed one.  The ladder itself is Fe25519.ladder, beside the
   field kernels it inlines: called from here, under dune's [-opaque],
   each kernel would be a closure call (DESIGN.md §2b).  This module
   clamps, counts operations by kind, memoises server keys' comb tables
   and batches the inversions, and calls the ladder once per scalar
   multiplication.

   This is the paper's dominant cost: every onion layer wrap/unwrap is one
   scalar multiplication (§8.2, "each 36-core machine can perform about
   340,000 Curve25519 Diffie-Hellman operations per second").  The field
   is the 51-bit-limb Fe25519; the seed ladder is retained verbatim in
   test/oracles/curve25519_ref as the differential-testing oracle.

   Two kinds of point are fixed, and both work on the birationally
   equivalent Edwards curve by the comb (448 field multiplications and
   an inversion a batch shares, against the ladder's ~2,560), mapped
   back to u = (1 + y)/(1 - y) with the same canonical encoding:

   - scalarmult_base, the base point — every fresh ephemeral key:
     clients' onion layers, servers' noise onions, dialing's sealed
     boxes and noise invitations, key generation;
   - shared_static, a server's long-lived public key — the other DH of
     every wrapped onion layer, over a table memoised per key.

   So a wrapped layer costs two comb operations and no ladder; a sealed
   box costs a base comb and a ladder (its DH toward a one-off
   recipient key), a noise invitation only the base comb of its key;
   peels and conversation keys stay on the ladder.
   Clamped scalars have bit 255 clear, as the comb requires.

   Every operation stops at its u-coordinate as a fraction X/Z, so a
   [batch] pays one field inversion, ~265 multiplications and
   squarings, instead of one per operation (Montgomery's trick, in
   Fe25519.batch_invert).  Five callers batch: Onion.wrap_many (a
   client's onion, a server's or load generator's chunk of wraps),
   Box.seal_anonymous (a sealed box's base comb and ladder),
   Dialing.noise_invitations (the ephemeral keys of a server's chunk of
   noise invitations), Onion.peel_many (a server's chunk of peels) and
   Box.open_anonymous_many (a callee's trial decryptions of one
   invitation drop). *)

let key_len = 32
let scalar_len = 32

let clamp scalar =
  let z = Bytes.copy scalar in
  Bytes_util.set_u8 z 0 (Bytes_util.get_u8 z 0 land 248);
  Bytes_util.set_u8 z 31 ((Bytes_util.get_u8 z 31 land 127) lor 64);
  z

(* Operations by kind, for tests and accounting; an uncontended atomic
   increment is noise beside a ~100 us scalar multiplication. *)
let ladder_ops = Atomic.make 0
let base_ops = Atomic.make 0
let keyed_ops = Atomic.make 0

type op_counts = { ladder : int; base : int; keyed : int }

let op_counts () =
  {
    ladder = Atomic.get ladder_ops;
    base = Atomic.get base_ops;
    keyed = Atomic.get keyed_ops;
  }

let check_lengths ~scalar ~point =
  if Bytes.length scalar <> scalar_len then
    invalid_arg "Curve25519: bad scalar length";
  if Bytes.length point <> key_len then
    invalid_arg "Curve25519: bad point length"

(* Comb tables for long-lived public keys, memoised by their encoding.
   [table = None] marks a key with no Edwards point (the twist), which
   stays on the ladder; whether a key has a table depends on the public
   key alone.

   Bounded: every deployment wraps toward at most 3 keys per process (a
   client or the load generator toward the chain's 3, a mixing server
   toward its suffix, which is a subset of them), so 8 entries (61 KB
   each, ~490 KB) never evict in steady state.  Past the cap the oldest
   entry goes, and a thrashing caller pays one table build per miss
   (BENCH_crypto.json's keyed_table_ms, 0.40 ms on a 2-vCPU Xeon VM,
   about six ladders): a chain
   longer than 8 servers would pay it on every layer.

   Shared across domains without a lock: the memo is an immutable list
   in an [Atomic.t], so a hit is a read and a scan of at most 8 keys.
   A miss builds its table outside the atomic and inserts it with
   compare-and-set; two domains that miss on one key both build it, and
   the first insert wins.  No [lazy]: two domains forcing one lazy value
   raise CamlinternalLazy.Undefined. *)
type static_key = { pk : bytes; table : Edwards25519.table option }

let static_keys_cap = 8
let static_keys : static_key list Atomic.t = Atomic.make []
let no_key = { pk = Bytes.empty; table = None }

let rec find pk = function
  | [] -> no_key
  | k :: rest -> if Bytes.equal k.pk pk then k else find pk rest

let rec insert key =
  let cur = Atomic.get static_keys in
  if find key.pk cur == no_key then begin
    let kept = List.filteri (fun i _ -> i < static_keys_cap - 1) cur in
    if not (Atomic.compare_and_set static_keys cur (key :: kept)) then
      insert key
  end

let static_table pk =
  let k = find pk (Atomic.get static_keys) in
  if k != no_key then k.table
  else begin
    let pk = Bytes.copy pk in
    let table =
      Option.map Edwards25519.table_of_point (Edwards25519.of_montgomery_u pk)
    in
    insert { pk; table };
    table
  end

type op =
  | Ladder of { scalar : bytes; point : bytes }
  | Base of bytes
  | Keyed of { secret : bytes; public : bytes }

let run_ladder ~scalar ~point ~num ~den =
  check_lengths ~scalar ~point;
  Atomic.incr ladder_ops;
  Fe25519.ladder (clamp scalar) (Fe25519.unpack point) ~x2:num ~z2:den

(* Run [op] up to its u-coordinate as the fraction [num] / [den], and
   count it by the kind that ran. *)
let fraction op ~num ~den =
  match op with
  | Ladder { scalar; point } -> run_ladder ~scalar ~point ~num ~den
  | Base scalar ->
      if Bytes.length scalar <> scalar_len then
        invalid_arg "Curve25519: bad scalar length";
      Atomic.incr base_ops;
      Edwards25519.(
        montgomery_fraction (scalarmult_base (clamp scalar)) ~num ~den)
  | Keyed { secret; public } -> (
      check_lengths ~scalar:secret ~point:public;
      match static_table public with
      | Some table ->
          Atomic.incr keyed_ops;
          Edwards25519.(
            montgomery_fraction (comb table (clamp secret)) ~num ~den)
      | None -> run_ladder ~scalar:secret ~point:public ~num ~den)

(* The batch: every fraction, then one inversion of all the
   denominators (Montgomery's trick; a zero denominator, from a
   low-order key, stays zero and spoils no other), then u = num / den. *)
let batch ops =
  let nums = Array.map (fun _ -> Fe25519.create ()) ops in
  let dens = Array.map (fun _ -> Fe25519.create ()) ops in
  Array.iteri (fun i op -> fraction op ~num:nums.(i) ~den:dens.(i)) ops;
  Fe25519.batch_invert dens;
  Array.mapi
    (fun i num ->
      Fe25519.mul num num dens.(i);
      Fe25519.pack num)
    nums

(* The one-operation case of [batch], without its arrays: a scalar
   multiplication allocates only its scratch. *)
let single op =
  let num = Fe25519.create () and den = Fe25519.create () in
  fraction op ~num ~den;
  Fe25519.invert den den;
  Fe25519.mul num num den;
  Fe25519.pack num

let scalarmult ~scalar ~point = single (Ladder { scalar; point })
let scalarmult_base scalar = single (Base scalar)

(* Diffie-Hellman: the raw shared point is passed through HKDF before use
   as a symmetric key (see Box), matching best practice. *)
let shared ~secret ~public = scalarmult ~scalar:secret ~point:public
let shared_static ~secret ~public = single (Keyed { secret; public })

let zero = Bytes.make key_len '\000'
let is_zero dh = Bytes_util.ct_equal dh zero
