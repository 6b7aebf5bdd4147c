(* Cryptographic shuffling (Algorithm 2, step 3a).

   Each mixing server draws a uniform permutation π for the round from its
   DRBG, applies it to the batch of requests before forwarding, and applies
   π⁻¹ to the batch of replies on the way back.  The honest server's π is
   what unlinks users from their dead-drop requests. *)

open Vuvuzela_crypto

type permutation = int array

(* Fisher-Yates with unbiased draws from the DRBG. *)
let random_permutation ?rng n =
  if n < 0 then invalid_arg "Shuffle.random_permutation: negative size";
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Drbg.uniform ?rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* [apply p a] is the array b with b.(i) = a.(p.(i)). *)
let apply p a =
  let n = Array.length a in
  if Array.length p <> n then invalid_arg "Shuffle.apply: size mismatch";
  Array.init n (fun i -> a.(p.(i)))

let invert p =
  let n = Array.length p in
  let q = Array.make n 0 in
  for i = 0 to n - 1 do
    q.(p.(i)) <- i
  done;
  q

(* [unapply p b] recovers a from [apply p a]. *)
let unapply p b = apply (invert p) b
