(* Baseline comparators from the paper's related work (§1, §10).

   "Systems with provably strong security guarantees have relied on
   mechanisms that scale quadratically in the number of users" — either
   broadcasting every message to every user (Dissent [36], Herbivore
   [21], Riposte [12]) or O(n²) computation via private information
   retrieval (the Pynchon Gate [34]).  Vuvuzela's headline claim is
   scaling metadata-private messaging "about 100× higher than prior
   systems".

   This module provides cost models for the two baseline families on the
   same hardware constants as the Vuvuzela model.  The bench prints the
   crossover table. *)

(* ------------------------------------------------------------------ *)
(* Cost models                                                         *)
(* ------------------------------------------------------------------ *)

(* Broadcast (Dissent-style): each round, each of n users contributes a
   fixed-size message and every user must download all n of them.  The
   server's egress is n² · msg bytes per round; DC-net/verifiable
   shuffling computation is charged per delivered copy. *)
let broadcast_round_latency (model : Cost_model.t) ~users ~msg_bytes =
  let copies = float_of_int users *. float_of_int users in
  let egress = copies *. float_of_int msg_bytes /. model.Cost_model.link_bandwidth in
  (* Per-copy processing (XOR/verify), generously fast: 100M copies/s. *)
  let compute = copies /. 1e8 in
  egress +. compute

(* PIR (Pynchon-style): each of n users' retrievals costs a linear scan
   over the n-message database; total server work O(n²) cheap word ops.
   We charge one 256-byte XOR pass per (user, message) pair at memory
   bandwidth (~10 GB/s). *)
let pir_round_latency ~users ~msg_bytes =
  let pairs = float_of_int users *. float_of_int users in
  pairs *. float_of_int msg_bytes /. 10e9

(* Vuvuzela on the same constants, for the comparison table. *)
let vuvuzela_round_latency model ~users ~noise =
  Cost_model.conv_latency model ~users ~servers:3 ~noise

(* Largest user count each system supports within a latency budget
   (binary search; all three latencies are monotone in users). *)
let max_users ~budget latency_of =
  if latency_of 2 > budget then 0
  else begin
    let lo = ref 2 and hi = ref 4 in
    while latency_of !hi <= budget && !hi < 1 lsl 40 do
      lo := !hi;
      hi := !hi * 2
    done;
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if latency_of mid <= budget then lo := mid else hi := mid
    done;
    !lo
  end

type comparison_row = {
  users : int;
  vuvuzela_s : float;
  broadcast_s : float;
  pir_s : float;
}

let comparison_table ?(model = Cost_model.paper) ~noise users_list =
  List.map
    (fun users ->
      {
        users;
        vuvuzela_s = vuvuzela_round_latency model ~users ~noise;
        broadcast_s =
          broadcast_round_latency model ~users
            ~msg_bytes:Vuvuzela.Types.sealed_message_len;
        pir_s =
          pir_round_latency ~users ~msg_bytes:Vuvuzela.Types.sealed_message_len;
      })
    users_list
