(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6.4 Figures 7-8, §8 Figures 9-11, the §8.2/§8.3 headline
   numbers, and Figure 6's sensitivity table), and measures this
   implementation's own primitive costs.

     dune exec bench/main.exe

   Paper numbers are printed beside ours.  Absolute performance numbers
   for the server figures come from the calibrated cost model (the
   paper's testbed constants); the crypto section reports what this
   machine's pure-OCaml crypto sustains, and the headline prediction is
   rescaled to its X25519 ladder rate.  Round times are the repository
   benchmark's (benchmark/), not this harness's. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

let line () = print_endline (String.make 78 '-')

let section title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* Every BENCH_<benchmark>.json opens with one header: the section that
   wrote it, the schema version, and the cores this host reports (a
   [jobs] above it measures scheduling overhead, not a speedup). *)
let write_artifact ~benchmark fields =
  let module Json = Vuvuzela_telemetry.Json in
  let path = Printf.sprintf "BENCH_%s.json" benchmark in
  let cores = Vuvuzela_parallel.Pool.default_jobs () in
  let doc =
    Json.Obj
      (("benchmark", Json.Str benchmark)
      :: ("schema", Json.Num 1.)
      :: ("host_cores", Json.Num (float_of_int cores))
      :: fields)
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  section
    "FIGURE 6 - sensitivity of (m1, m2) to one user's action vs cover story";
  Format.printf "%a" Vuvuzela_attack.Observation.pp_table ();
  let s1, s2 = Vuvuzela_attack.Observation.max_sensitivity () in
  Printf.printf
    "\nmax |dm1| = %d (paper: 2), max |dm2| = %d (paper: 1) -- %s\n" s1 s2
    (if s1 = 2 && s2 = 1 then "MATCHES the paper's table" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8                                                     *)
(* ------------------------------------------------------------------ *)

let privacy_figure ~title ~paper_k curves =
  section title;
  List.iter2
    (fun (c : Vuvuzela_sim.Figures.privacy_curve) paper ->
      Printf.printf "mu=%-8.0f b=%-7.0f supported k=%-8d (paper: ~%d)\n"
        c.Vuvuzela_sim.Figures.mu c.b c.supported_k paper;
      Printf.printf "  %-10s %-10s %-12s\n" "k" "e^eps'" "delta'";
      List.iter
        (fun (k, e, d) -> Printf.printf "  %-10d %-10.3f %-12.3e\n" k e d)
        (List.filteri (fun i _ -> i mod 3 = 0) c.points))
    curves paper_k

let figure7 () =
  privacy_figure
    ~title:
      "FIGURE 7 - eps'/delta' vs rounds, conversation noise (paper: 70K / \
       250K / 500K rounds at eps'=ln2)"
    ~paper_k:[ 70_000; 250_000; 500_000 ]
    (Vuvuzela_sim.Figures.figure7 ())

let figure8 () =
  privacy_figure
    ~title:
      "FIGURE 8 - eps'/delta' vs rounds, dialing noise (paper: 1200 / 3500 \
       / 8000 rounds)"
    ~paper_k:[ 1_200; 3_500; 8_000 ]
    (Vuvuzela_sim.Figures.figure8 ())

(* ------------------------------------------------------------------ *)
(* Figures 9-11                                                        *)
(* ------------------------------------------------------------------ *)

let figure9 () =
  section
    "FIGURE 9 - conversation latency vs online users (paper, mu=300K: 20 s \
     at 10 users, 37 s at 1M, 55 s at 2M)";
  let curves = Vuvuzela_sim.Figures.figure9 () in
  (* One table per field of the same pipelined runs (Pipeline's
     recurrence, 6 rounds). *)
  let table title field =
    Printf.printf "%s\n%-12s" title "users";
    List.iter
      (fun (c : Vuvuzela_sim.Figures.pipeline_curve) ->
        Printf.printf "%14s" c.label)
      curves;
    print_newline ();
    List.iteri
      (fun i users ->
        Printf.printf "%-12d" users;
        List.iter
          (fun (c : Vuvuzela_sim.Figures.pipeline_curve) ->
            Printf.printf "%12.1f s" (field (snd (List.nth c.points i))))
          curves;
        print_newline ())
      Vuvuzela_sim.Figures.fig9_users
  in
  table "end-to-end latency" (fun r -> r.Vuvuzela_sim.Pipeline.mean_latency);
  table "\npipelined round interval" (fun r ->
      r.Vuvuzela_sim.Pipeline.round_interval)

let figure10 () =
  section
    "FIGURE 10 - dialing latency vs online users, mu=13K (paper: 13 s at 10 \
     users, 50 s at 2M)";
  List.iter
    (fun (u, l) -> Printf.printf "  %-12d %8.1f s\n" u l)
    (Vuvuzela_sim.Figures.figure10 ())

let figure11 () =
  section
    "FIGURE 11 - latency vs chain length, 1M users, mu=300K (paper: ~5 s to \
     ~140 s, quadratic)";
  let points = Vuvuzela_sim.Figures.figure11 () in
  List.iter (fun (s, l) -> Printf.printf "  %d servers: %8.1f s\n" s l) points;
  Printf.printf
    "  quadratic fit R^2 = %.4f (paper: \"scales roughly quadratically\")\n"
    (Vuvuzela_sim.Figures.quadratic_r2 points)

(* ------------------------------------------------------------------ *)
(* Headlines                                                           *)
(* ------------------------------------------------------------------ *)

let headlines ~ladder_ops_per_sec =
  section "HEADLINE NUMBERS (§1, §8.2, §8.3)";
  let h = Vuvuzela_sim.Figures.headlines () in
  let row name ours paper =
    Printf.printf "  %-44s %14s %14s\n" name ours paper
  in
  row "metric" "ours" "paper";
  row "end-to-end latency, 1M users"
    (Printf.sprintf "%.1f s" h.Vuvuzela_sim.Figures.latency_1m)
    "37 s";
  row "end-to-end latency, 2M users" (Printf.sprintf "%.1f s" h.latency_2m) "55 s";
  row "end-to-end latency, 10 users" (Printf.sprintf "%.1f s" h.latency_10) "20 s";
  row "throughput at 1M users"
    (Printf.sprintf "%.0f msg/s" h.throughput_1m)
    "68,000 msg/s";
  row "crypto lower bound, 2M users (8.2)"
    (Printf.sprintf "%.1f s" h.lower_bound_2m)
    "~28 s";
  row "noise requests per round (3 servers)"
    (Printf.sprintf "%.1fM" (h.noise_requests /. 1e6))
    "1.2M";
  row "server bandwidth at 1M users"
    (Printf.sprintf "%.0f MB/s" (h.server_bandwidth_1m /. 1e6))
    "166 MB/s";
  row "client bandwidth (conv + dialing)"
    (Printf.sprintf "%.1f KB/s" (h.client_bandwidth /. 1e3))
    "~12 KB/s";
  row "invitation drop size, 1M users"
    (Printf.sprintf "%.1f MB" (h.drop_bytes /. 1e6))
    "~7 MB";
  row "client messages per minute"
    (Printf.sprintf "%.1f" h.messages_per_minute)
    "4";
  let scaled =
    {
      Vuvuzela_sim.Cost_model.paper with
      Vuvuzela_sim.Cost_model.dh_ops_per_sec = ladder_ops_per_sec *. 36.;
    }
  in
  Printf.printf
    "\n  this machine's X25519: %.0f ops/s/core (paper's testbed: 340,000 \
     ops/s on 36 cores = %.0f/core);\n"
    ladder_ops_per_sec (340_000. /. 36.);
  Printf.printf
    "  a 36-core server running this OCaml stack would complete a 1M-user \
     round in ~%.0f s.\n"
    (Vuvuzela_sim.Cost_model.conv_latency scaled ~users:1_000_000 ~servers:3
       ~noise:(Vuvuzela_sim.Figures.conv_noise_of 300_000.))

(* ------------------------------------------------------------------ *)
(* §6.4 posterior examples                                             *)
(* ------------------------------------------------------------------ *)

let posteriors () =
  section "POSTERIOR BOUNDS (§6.4 worked example)";
  let cases =
    [ (0.5, log 2., 0.667); (0.5, log 3., 0.75); (0.01, log 3., 0.0294) ]
  in
  List.iter
    (fun (prior, eps, paper) ->
      Printf.printf
        "  prior %5.1f%%, eps=%5.3f -> posterior %6.2f%% (paper: %.1f%%)\n"
        (100. *. prior) eps
        (100. *. Bayes.posterior ~prior ~eps)
        (100. *. paper))
    cases

(* ------------------------------------------------------------------ *)
(* Crypto: the field rewrite vs the retained seed implementation       *)
(* ------------------------------------------------------------------ *)

(* Throughput of the rewritten X25519 (ten radix-2^25.5 words; the fixed base and
   memoised server keys via the Edwards comb, with the cost of one
   server-key table) against the retained seed ladder (Curve25519_ref,
   16×16-bit limbs), one onion peel split into its ladder, HKDF and AEAD
   parts, a peel's share of a 128-onion batch and a 3-layer wrap, a
   sealed box alone and its share of a 10-box batch, the field kernels'
   throughput, AEAD seal/open and ChaCha20 throughput, and the untagged
   SHA-256 and Poly1305 against their tagged refs with one Box.derive —
   written to BENCH_crypto.json so the numbers are diffable
   run-to-run — and, printed only, the per-message primitives of a
   client and a server.  Returns the ladder's rate, which the headline
   section rescales the cost model to. *)
let crypto_bench () =
  section
    "CRYPTO - radix-2^25.5 field, untagged symmetric kernels vs seed (writes \
     BENCH_crypto.json)";
  let module T = Vuvuzela_telemetry in
  let rng = Drbg.of_string "bench-crypto" in
  let sk, _pk = Drbg.keypair ~rng () in
  let _peer_sk, peer_pk = Drbg.keypair ~rng () in
  let ops_per_sec ?(min_s = 0.4) f =
    for _ = 1 to 16 do
      f ()
    done;
    let t0 = Unix.gettimeofday () in
    let n = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < min_s do
      for _ = 1 to 32 do
        f ()
      done;
      n := !n + 32;
      elapsed := Unix.gettimeofday () -. t0
    done;
    float_of_int !n /. !elapsed
  in
  (* Rates whose ratios the artifact records (and CI checks), timed in
     alternation: fifteen rounds of 0.1 s samples, in a rotating order.
     The first operation's rate is its median sample, and every other
     rate is that times the median of its per-round ratio to the first,
     so each ratio compares samples taken in the same load phase.  Timed
     one after another for 0.4 s each, the keyed comb read 1.74x to 3.00x
     the ladder at one commit on a loaded 2-vCPU VM. *)
  let interleaved fs =
    let rounds = 15 and n = Array.length fs in
    let samples = Array.make_matrix n rounds 0. in
    for r = 0 to rounds - 1 do
      for k = 0 to n - 1 do
        let i = (r + k) mod n in
        samples.(i).(r) <- ops_per_sec ~min_s:0.1 fs.(i)
      done
    done;
    let median a =
      let a = Array.copy a in
      Array.sort compare a;
      a.(rounds / 2)
    in
    let first = median samples.(0) in
    Array.map
      (fun s ->
        first *. median (Array.mapi (fun r x -> x /. samples.(0).(r)) s))
      samples
  in
  (* The ladder, the seed's ladder, the fixed-base comb, and the DH
     toward a memoised server key (the onion wrap's). *)
  let rates =
    interleaved
      [|
        (fun () -> ignore (Curve25519.scalarmult ~scalar:sk ~point:peer_pk));
        (fun () ->
          ignore (Curve25519_ref.scalarmult ~scalar:sk ~point:peer_pk));
        (fun () -> ignore (Curve25519.scalarmult_base sk));
        (fun () ->
          ignore (Curve25519.shared_static ~secret:sk ~public:peer_pk));
      |]
  in
  let x_new = rates.(0) and x_ref = rates.(1) in
  let x_base = rates.(2) and x_keyed = rates.(3) in
  (* One miss: mapping the key to Edwards and building its comb table. *)
  let table_ms =
    1000.
    /. ops_per_sec (fun () ->
           ignore
             (Edwards25519.table_of_point
                (Option.get (Edwards25519.of_montgomery_u peer_pk))))
  in
  (* One peel of a 3-hop conversation onion, and its three parts on the
     same inputs: the ladder, Box's HKDF step, and the AEAD open.  Beside
     them, what a server and a client actually run: one onion's share of
     a 128-onion [peel_many] (one field inversion for all 128), one
     3-layer [wrap_with] (one for its 6 operations), one plain sealed
     box alone (a client's invite: one inversion for its base comb and
     ladder), and one noise invitation's share of a 10-invitation chunk
     (a jobs-2 chunk of a hop's 20 on [dial]: its draws, its key's base
     comb, one inversion for all 10, and its filler). *)
  let us ops = 1e6 /. ops in
  let server_sk, server_pk = Drbg.keypair ~rng () in
  let chain = server_pk :: List.init 2 (fun _ -> snd (Drbg.keypair ~rng ())) in
  let wrap () =
    (Vuvuzela_mixnet.Onion.wrap ~rng ~server_pks:chain ~round:1
       (Drbg.generate rng Types.exchange_payload_len))
      .Vuvuzela_mixnet.Onion.onion
  in
  let onion = wrap () in
  let part = 128 in
  let onions = Array.init part (fun _ -> wrap ()) in
  let eph_sks = Vuvuzela_mixnet.Onion.draw_eph_sks ~rng ~chain_len:3 () in
  let payload = Drbg.generate rng Types.exchange_payload_len in
  let epk = Bytes.sub onion 0 Curve25519.key_len in
  let raw = Curve25519.shared ~secret:server_sk ~public:epk in
  let layer_key = Box.derive raw in
  let ct_len = Bytes.length onion - Curve25519.key_len in
  let inner = Bytes.create (ct_len - Aead.tag_len) in
  let request_nonce = Vuvuzela_mixnet.Onion.request_nonce ~round:1 in
  let noise_chunk = 10 in
  let callee_pk = snd (Drbg.keypair ~rng ()) in
  let caller_pk = Drbg.generate rng Curve25519.key_len in
  let peel =
    Array.map us
      (interleaved
         [|
           (fun () ->
             ignore (Vuvuzela_mixnet.Onion.peel ~server_sk ~round:1 onion));
           (fun () -> ignore (Curve25519.shared ~secret:server_sk ~public:epk));
           (fun () -> ignore (Box.derive raw));
           (fun () ->
             if
               not
                 (Aead.open_into ~key:layer_key ~nonce:request_nonce ~src:onion
                    ~src_off:Curve25519.key_len ~len:ct_len ~dst:inner
                    ~dst_off:0 ())
             then failwith "bench: the peeled layer does not authenticate");
           (fun () ->
             ignore
               (Vuvuzela_mixnet.Onion.peel_many ~server_sk ~round:1 onions));
           (fun () ->
             ignore
               (Vuvuzela_mixnet.Onion.wrap_with ~eph_sks ~server_pks:chain
                  ~round:1 payload));
           (fun () ->
             ignore
               (Box.seal_anonymous ~rng ~recipient_pk:callee_pk caller_pk));
           (fun () ->
             ignore
               (Dialing.noise_invitations
                  (Array.init noise_chunk (fun _ ->
                       Dialing.draw ~rng ~kind:Dialing.Plain ()))));
         |])
  in
  let peel_us = peel.(0) and peel_ladder_us = peel.(1) in
  let peel_hkdf_us = peel.(2) and peel_aead_us = peel.(3) in
  let peel_part_us = peel.(4) /. float_of_int part and wrap_us = peel.(5) in
  let box_us = peel.(6) in
  let noise_part_us = peel.(7) /. float_of_int noise_chunk in
  (* The field kernels' throughput: a sample runs a kernel over 128
     independent operand pairs into 128 outputs, and the two kernels
     are timed in alternation, so a square (45 word products) and a
     mul (75) compare within one load phase.  Each call goes
     through caml_apply from this module. *)
  let fe_batch = 128 in
  let fe_operands () =
    Array.init fe_batch (fun _ -> Fe25519.unpack (Drbg.generate rng 32))
  in
  let fas = fe_operands () and fbs = fe_operands () in
  let fouts = Array.init fe_batch (fun _ -> Fe25519.create ()) in
  let fe_ns =
    Array.map
      (fun ops -> 1e9 /. (ops *. float_of_int fe_batch))
      (interleaved
         [|
           (fun () ->
             for i = 0 to fe_batch - 1 do
               Fe25519.mul fouts.(i) fas.(i) fbs.(i)
             done);
           (fun () ->
             for i = 0 to fe_batch - 1 do
               Fe25519.square fouts.(i) fas.(i)
             done);
         |])
  in
  let fe_mul_ns = fe_ns.(0) and fe_square_ns = fe_ns.(1) in
  let speedup = x_new /. x_ref in
  Printf.printf "  x25519 (ladder)         %10.0f ops/s\n" x_new;
  Printf.printf "  x25519 (seed, 16-bit)   %10.0f ops/s\n" x_ref;
  Printf.printf "  x25519 fixed-base       %10.0f ops/s\n" x_base;
  Printf.printf "  x25519 keyed (memoised) %10.0f ops/s  (%.2fx ladder)\n"
    x_keyed (x_keyed /. x_new);
  Printf.printf "  keyed table build       %10.3f ms\n" table_ms;
  Printf.printf
    "  onion peel (3 hops)     %10.1f us = ladder %.1f + hkdf %.1f + aead \
     %.1f us (parts %.1f%%)\n"
    peel_us peel_ladder_us peel_hkdf_us peel_aead_us
    (100. *. (peel_ladder_us +. peel_hkdf_us +. peel_aead_us) /. peel_us);
  Printf.printf "  %-23s %10.1f us per onion (%.2fx onion peel)\n"
    (Printf.sprintf "peel in a %d batch" part)
    peel_part_us (peel_part_us /. peel_us);
  Printf.printf "  onion wrap_with (3 hops) %9.1f us (%.2fx onion peel)\n"
    wrap_us (wrap_us /. peel_us);
  Printf.printf "  sealed box alone        %10.1f us\n" box_us;
  Printf.printf "  %-23s %10.1f us per invitation (%.2fx sealed box)\n"
    (Printf.sprintf "noise in a %d chunk" noise_chunk)
    noise_part_us (noise_part_us /. box_us);
  Printf.printf "  fe mul / square         %10.1f / %.1f ns\n" fe_mul_ns
    fe_square_ns;
  Printf.printf "  speedup %.2fx %s\n" speedup
    (if speedup >= 3. then "(meets the >=3x target)"
     else "(BELOW the 3x target)");
  let key = Drbg.generate rng Aead.key_len in
  let nonce = Aead.nonce_of ~domain:7 ~counter:1 in
  let msg = Drbg.generate rng 1024 in
  let sealed = Aead.seal ~key ~nonce msg in
  let seal_ops = ops_per_sec (fun () -> ignore (Aead.seal ~key ~nonce msg)) in
  let open_ops =
    ops_per_sec (fun () -> ignore (Aead.open_ ~key ~nonce sealed))
  in
  let mb ops = ops *. 1024. /. 1e6 in
  Printf.printf "  aead seal (1 KiB)       %10.1f MB/s\n" (mb seal_ops);
  Printf.printf "  aead open (1 KiB)       %10.1f MB/s\n" (mb open_ops);
  (* In-place _into path: what the server peel/reseal loops actually
     run — no plaintext/ciphertext allocations at all. *)
  let scratch = Bytes.create (1024 + Aead.tag_len) in
  let seal_into_ops =
    ops_per_sec (fun () ->
        Bytes.blit msg 0 scratch 0 1024;
        Aead.seal_into ~key ~nonce ~src:scratch ~src_off:0 ~len:1024
          ~dst:scratch ~dst_off:0 ())
  in
  Printf.printf "  aead seal_into (1 KiB)  %10.1f MB/s\n" (mb seal_into_ops);
  (* Raw ChaCha20 stream, the one-loop fast path vs the retained seed
     oracle, on a 16 KiB buffer, timed in alternation: CI checks their
     ratio. *)
  let big = Drbg.generate rng 16384 in
  let mb16 ops = ops *. 16384. /. 1e6 in
  let chacha =
    interleaved
      [|
        (fun () -> ignore (Chacha20.encrypt ~key ~nonce big));
        (fun () -> ignore (Chacha20_ref.encrypt ~key ~nonce big));
      |]
  in
  let chacha_fast = chacha.(0) and chacha_ref = chacha.(1) in
  Printf.printf "  chacha20 (16 KiB)       %10.1f MB/s (one loop)\n"
    (mb16 chacha_fast);
  Printf.printf "  chacha20 (16 KiB, seed) %10.1f MB/s (%.2fx)\n"
    (mb16 chacha_ref)
    (chacha_fast /. chacha_ref);
  (* The untagged SHA-256 and Poly1305 against their retained tagged
     implementations, each pair timed in alternation: one compression (an
     aligned 64-byte feed) and one 1 KiB MAC.  CI checks both ratios.
     Beside them, one Box.derive: a 32-byte HKDF, six compressions. *)
  let block = Drbg.generate rng 64 in
  let sha = Sha256.init () and sha_ref = Sha256_ref.init () in
  let sha_rates =
    interleaved
      [|
        (fun () -> Sha256.feed sha block);
        (fun () -> Sha256_ref.feed sha_ref block);
      |]
  in
  let sha_speedup = sha_rates.(0) /. sha_rates.(1) in
  let poly_rates =
    interleaved
      [|
        (fun () -> ignore (Poly1305.mac ~key msg));
        (fun () -> ignore (Poly1305_ref.mac ~key msg));
      |]
  in
  let poly_speedup = poly_rates.(0) /. poly_rates.(1) in
  let hkdf_us = us (ops_per_sec (fun () -> ignore (Box.derive raw))) in
  Printf.printf "  sha256 compression      %10.0f ns (%.2fx the tagged ref)\n"
    (1e9 /. sha_rates.(0)) sha_speedup;
  Printf.printf "  poly1305 (1 KiB)        %10.1f MB/s (%.2fx the tagged ref)\n"
    (mb poly_rates.(0)) poly_speedup;
  Printf.printf "  Box.derive (hkdf)       %10.2f us\n" hkdf_us;
  (* The per-message primitives, one line each. *)
  let msg240 = Drbg.generate rng 240 in
  let server_pks = List.init 3 (fun _ -> snd (Drbg.keypair ~rng ())) in
  let payload = Drbg.generate rng Types.exchange_payload_len in
  let session =
    Conversation.derive
      ~identity:(Types.identity_of_seed (Bytes.of_string "bench-alice"))
      ~peer_pk
  in
  let shuffled = Array.init 4096 Fun.id in
  let laplace = Laplace.params ~mu:300_000. ~b:13_800. in
  let ed_sk, ed_pk = Ed25519.keypair ~rng () in
  let ed_msg = Drbg.generate rng 200 in
  let signature = Ed25519.sign ~secret:ed_sk ed_msg in
  List.iter
    (fun (name, f) ->
      let ops = ops_per_sec f in
      Printf.printf "  %-23s %10.0f ops/s (%.1f us)\n" name ops (us ops))
    [
      ("sha256 (240 B)", fun () -> ignore (Sha256.digest msg240));
      ("hmac-sha256 (240 B)", fun () -> ignore (Hmac.sha256 ~key msg240));
      ( "onion wrap (3 layers)",
        fun () ->
          ignore
            (Vuvuzela_mixnet.Onion.wrap ~rng ~server_pks ~round:1 payload) );
      ( "shuffle (4096)",
        fun () ->
          ignore
            (Vuvuzela_mixnet.Shuffle.apply
               (Vuvuzela_mixnet.Shuffle.random_permutation ~rng 4096)
               shuffled) );
      ( "laplace truncated",
        fun () -> ignore (Laplace.truncated_sample ~rng laplace) );
      ( "exchange payload",
        fun () ->
          ignore
            (Conversation.exchange_payload session ~round:1
               (Message.Empty { ack = 0 })) );
      ("ed25519 sign", fun () -> ignore (Ed25519.sign ~secret:ed_sk ed_msg));
      ( "ed25519 verify",
        fun () -> ignore (Ed25519.verify ~public:ed_pk ~signature ed_msg) );
    ];
  write_artifact ~benchmark:"crypto"
    [
      ( "x25519",
        T.Json.Obj
          [
            ("ops_per_sec", T.Json.Num x_new);
            ("seed_ops_per_sec", T.Json.Num x_ref);
            ("fixed_base_ops_per_sec", T.Json.Num x_base);
            ("keyed_ops_per_sec", T.Json.Num x_keyed);
            ("keyed_table_ms", T.Json.Num table_ms);
            ("peel_us", T.Json.Num peel_us);
            ("peel_ladder_us", T.Json.Num peel_ladder_us);
            ("peel_hkdf_us", T.Json.Num peel_hkdf_us);
            ("peel_aead_us", T.Json.Num peel_aead_us);
            ("peel_part_us", T.Json.Num peel_part_us);
            ("wrap_us", T.Json.Num wrap_us);
            ("box_us", T.Json.Num box_us);
            ("noise_part_us", T.Json.Num noise_part_us);
            ("fe_mul_ns", T.Json.Num fe_mul_ns);
            ("fe_square_ns", T.Json.Num fe_square_ns);
            ("speedup_vs_seed", T.Json.Num speedup);
          ] );
      ( "aead_1kib",
        T.Json.Obj
          [
            ("seal_mb_per_sec", T.Json.Num (mb seal_ops));
            ("open_mb_per_sec", T.Json.Num (mb open_ops));
            ("seal_into_mb_per_sec", T.Json.Num (mb seal_into_ops));
          ] );
      ( "chacha20_16kib",
        T.Json.Obj
          [
            ("fast_mb_per_sec", T.Json.Num (mb16 chacha_fast));
            ("seed_mb_per_sec", T.Json.Num (mb16 chacha_ref));
            ("speedup_vs_seed", T.Json.Num (chacha_fast /. chacha_ref));
          ] );
      ( "symmetric",
        T.Json.Obj
          [
            ("sha256_speedup_vs_ref", T.Json.Num sha_speedup);
            ("poly1305_speedup_vs_ref", T.Json.Num poly_speedup);
            ("hkdf_us", T.Json.Num hkdf_us);
          ] );
    ];
  x_new

(* ------------------------------------------------------------------ *)
(* Faults: retry overhead under the round supervisor                   *)
(* ------------------------------------------------------------------ *)

(* What a failed-and-retried round costs: crashes are planted at every
   even round number, and since each retry consumes the next (odd)
   number, every supervised round's first attempt crashes and its retry
   succeeds — each round does the client build + chain trip twice, with
   fresh onions and redrawn noise.  The interesting number is the
   per-round overhead against a fault-free run of the same deployment,
   at jobs ∈ {1, 4} (expected ≈ 2x). *)
let faults_overhead () =
  section "FAULTS - round supervisor retry overhead (every round retried once)";
  let n_clients = 24 and rounds = 6 in
  let run ~jobs ~with_faults =
    let fault_plan =
      if with_faults then
        Some
          (List.init rounds (fun i ->
               {
                 Vuvuzela_faults.Fault.round = 2 * (i + 1);
                 server = 1;
                 kind = Vuvuzela_faults.Fault.Crash;
               }))
      else None
    in
    let net =
      Network.of_config
        Network.Config.(
          default |> with_seed "bench-faults"
          |> with_noise (Laplace.params ~mu:4. ~b:1.)
          |> with_dial_noise (Laplace.params ~mu:1. ~b:1.)
          |> with_noise_mode Noise.Deterministic |> with_jobs jobs
          |> with_max_retries 2
          |>
          match fault_plan with
          | None -> Fun.id
          | Some plan -> with_fault_plan plan)
    in
    let clients =
      List.init n_clients (fun i ->
          Network.connect ~seed:(Printf.sprintf "fc%d" i) net)
    in
    let rec pair = function
      | a :: b :: rest ->
          Client.start_conversation a ~peer_pk:(Client.public_key b);
          Client.start_conversation b ~peer_pk:(Client.public_key a);
          pair rest
      | _ -> ()
    in
    pair clients;
    ignore (Network.run ~kind:Round.Conversation net) (* warm-up, and lands on round 1 *);
    let t0 = Unix.gettimeofday () in
    let reports = Network.run_rounds net rounds in
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int rounds in
    Network.shutdown net;
    let retried =
      List.length (List.filter (fun r -> r.Network.attempts > 1) reports)
    in
    (1000. *. dt, retried)
  in
  List.iter
    (fun jobs ->
      let clean_ms, _ = run ~jobs ~with_faults:false in
      let faulty_ms, retried = run ~jobs ~with_faults:true in
      Printf.printf
        "  jobs=%-3d clean %7.1f ms/round   faulted %7.1f ms/round \
         (%d/%d rounds retried, overhead %.2fx)\n"
        jobs clean_ms faulty_ms retried rounds (faulty_ms /. clean_ms))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Ablations: what each design element buys                            *)
(* ------------------------------------------------------------------ *)

let ablation_noise () =
  section "ABLATION - the optimal disclosure attack with and without noise";
  Printf.printf
    "  adversary posterior (prior 50%%) that a specific pair is talking, \
     after k rounds:\n";
  Printf.printf "  %-28s %8s %8s %8s\n" "configuration" "k=5" "k=20" "k=80";
  let run noise talking k seed =
    (* mean over 10 trials to smooth the likelihood random walk *)
    let total = ref 0. in
    for trial = 1 to 10 do
      let rng = Drbg.of_string (Printf.sprintf "abl-%s-%d-%d" seed k trial) in
      total :=
        !total
        +. (Vuvuzela_attack.Disclosure.model_attack ~rng ~noise ~talking
              ~rounds:k ~prior:0.5 ())
             .Vuvuzela_attack.Disclosure.posterior
    done;
    !total /. 10.
  in
  let row name noise =
    Printf.printf "  %-28s %7.1f%% %7.1f%% %7.1f%%\n" name
      (100. *. run noise true 5 name)
      (100. *. run noise true 20 name)
      (100. *. run noise true 80 name)
  in
  row "no noise (mixnet only)" (Laplace.params ~mu:0.01 ~b:0.01);
  row "mu=50  (paper ratio)" (Laplace.params ~mu:50. ~b:(50. /. 21.7));
  row "mu=200 (paper ratio)" (Laplace.params ~mu:200. ~b:(200. /. 21.7));
  row "mu=800 (paper ratio)" (Laplace.params ~mu:800. ~b:(800. /. 21.7));
  Printf.printf
    "  -> without cover traffic the pair is identified in a handful of \
     rounds;\n     noise at the paper's µ/b ratio pins the posterior near \
     the prior.\n"

let ablation_m_tuning () =
  section "ABLATION - invitation-drop count m (§5.4 tradeoff)";
  let users = 1_000_000 and dial_fraction = 0.05 in
  let dial_noise = Vuvuzela_sim.Figures.dial_noise_13k in
  Printf.printf "  1M users, 5%% dialing, µ=13K per server (3 servers):\n";
  Printf.printf "  %-6s %18s %22s\n" "m" "client download" "server noise load";
  List.iter
    (fun m ->
      let drop =
        Vuvuzela_sim.Cost_model.invitation_drop_bytes ~users ~servers:3 ~m
          ~dial_fraction ~dial_noise
      in
      let noise_total = float_of_int (3 * m) *. dial_noise.Laplace.mu in
      Printf.printf "  %-6d %12.2f MB %18.0f invitations\n" m (drop /. 1e6)
        noise_total)
    [ 1; 2; 4; 8; 16 ];
  let tuned =
    Vuvuzela_dp.Noise.tune_drop_count ~users ~dial_fraction dial_noise
  in
  Printf.printf
    "  §5.4 rule m = n·f/µ chooses m = %d (real ≈ noise per drop).\n" tuned

let baseline_comparison () =
  section
    "BASELINES - Vuvuzela vs the O(n^2) prior systems (\"about 100x higher \
     than prior systems\", §1)";
  let noise = Vuvuzela_sim.Figures.conv_noise_of 300_000. in
  Printf.printf "  round latency on the paper's hardware constants:\n";
  Printf.printf "  %-12s %14s %14s %14s\n" "users" "vuvuzela" "broadcast" "PIR";
  List.iter
    (fun (r : Vuvuzela_sim.Baselines.comparison_row) ->
      let f s = if s > 3600. then Printf.sprintf "%.1f h" (s /. 3600.) else Printf.sprintf "%.1f s" s in
      Printf.printf "  %-12d %14s %14s %14s\n" r.users (f r.vuvuzela_s)
        (f r.broadcast_s) (f r.pir_s))
    (Vuvuzela_sim.Baselines.comparison_table ~noise
       [ 1_000; 5_000; 50_000; 500_000; 2_000_000 ]);
  let budget = 60. in
  let cap f = Vuvuzela_sim.Baselines.max_users ~budget f in
  let bc = cap (fun n -> Vuvuzela_sim.Baselines.broadcast_round_latency Vuvuzela_sim.Cost_model.paper ~users:n ~msg_bytes:256) in
  let pir = cap (fun n -> Vuvuzela_sim.Baselines.pir_round_latency ~users:n ~msg_bytes:256) in
  let vuv = cap (fun n -> Vuvuzela_sim.Baselines.vuvuzela_round_latency Vuvuzela_sim.Cost_model.paper ~users:n ~noise) in
  Printf.printf
    "\n  users supportable within a %.0f s round: broadcast %d, PIR %d, \
     vuvuzela %d  (~%.0fx)\n"
    budget bc pir vuv
    (float_of_int vuv /. float_of_int (max bc pir));
  Printf.printf
    "  (paper: Dissent ~5K users / Riposte hundreds of msgs/s vs Vuvuzela \
     2M users)\n"

let workload_summary () =
  section "WORKLOAD - functional implementation under the §8.1 mix (scaled)";
  let s =
    Vuvuzela_sim.Workload.run ~seed:"bench-workload"
      ~profile:(Vuvuzela_sim.Workload.paper_mix ~users:10)
      ~rounds:15 ()
  in
  Format.printf "  paper mix, 10 users, 15 rounds: %a@."
    Vuvuzela_sim.Workload.pp_summary s;
  let st =
    Vuvuzela_sim.Workload.run ~seed:"bench-stress"
      ~profile:(Vuvuzela_sim.Workload.stress ~users:10)
      ~rounds:20 ()
  in
  Format.printf "  stress mix (churn+outages),   20 rounds: %a@."
    Vuvuzela_sim.Workload.pp_summary st

(* ------------------------------------------------------------------ *)
(* Churn: rounds over emulated WAN links, flap rates, reconnect storm  *)
(* ------------------------------------------------------------------ *)

(* What the WAN costs: the same loopback-TCP deployment with every link
   behind the deterministic shaper — rounds/sec at ~50 ms and ~100 ms
   emulated RTT per link at jobs ∈ {1, 4}; how round latency degrades
   as the middle server's upstream link flaps more often (the daemon
   outbox + the link end's flap grace absorbing each outage without a
   retry); the reconnect-storm recovery time with latency applied; and
   how long a chain takes from spawn to the coordinator's link. *)
let churn_bench () =
  section "CHURN - emulated WAN links and flap rates (writes BENCH_churn.json)";
  let module T = Vuvuzela_telemetry in
  let module Addr = Vuvuzela_transport.Addr in
  let module Shaper = Vuvuzela_transport.Shaper in
  let server_bin = Daemon_spawn.server_bin () in
  if not (Daemon_spawn.sockets_allowed ()) then
    Printf.printf "  skipped: sandbox forbids loopback sockets\n"
  else if not (Sys.file_exists server_bin) then
    Printf.printf "  skipped: %s not built (run dune build first)\n" server_bin
  else begin
    let n_clients = 16 and rounds = 4 in
    let noise = Laplace.params ~mu:4. ~b:1. in
    let dial_noise = Laplace.params ~mu:1. ~b:1. in
    let spawn_daemon ~jobs ~seed ~ports ?link_latency ?fault_plan index =
      Daemon_spawn.spawn_server ~bin:server_bin ~ports ~index ~seed
        ([ "--mu"; "4"; "--noise-b"; "1"; "--dial-mu"; "1"; "--dial-b"; "1";
           "--deterministic-noise"; "--jobs"; string_of_int jobs;
           "--flap-grace-ms"; "5000" ]
        @ (match link_latency with
          | None -> []
          | Some lat -> [ "--link-latency"; lat ])
        @
        match fault_plan with
        | Some (j, plan) when j = index -> [ "--fault-plan"; plan ]
        | _ -> [])
    in
    let connect_clients net =
      let clients =
        List.init n_clients (fun i ->
            Network.connect ~seed:(Printf.sprintf "cc%d" i) net)
      in
      let rec pair = function
        | a :: b :: rest ->
            Client.start_conversation a ~peer_pk:(Client.public_key b);
            Client.start_conversation b ~peer_pk:(Client.public_key a);
            pair rest
        | _ -> ()
      in
      pair clients
    in
    (* ms/round, total attempts over [rounds] measured rounds (after one
       warm-up round — which is also where round-1 faults land). *)
    let measure net =
      ignore (Network.run ~kind:Round.Conversation net);
      let t0 = Unix.gettimeofday () in
      let reports = Network.run_rounds net rounds in
      let dt = Unix.gettimeofday () -. t0 in
      (match Network.failures_of reports with
      | [] -> ()
      | st :: _ ->
          failwith
            (Format.asprintf "churn bench round failed: %a" Rpc.pp_status st));
      let attempts =
        List.fold_left (fun n r -> n + r.Network.attempts) 0 reports
      in
      (1000. *. dt /. float_of_int rounds, attempts)
    in
    let over_tcp ~jobs ?link_latency ?fault_plan f =
      let seed = "bench-churn" in
      let ports = Daemon_spawn.free_ports 3 in
      let pids =
        ref
          (List.map
             (spawn_daemon ~jobs ~seed ~ports ?link_latency ?fault_plan)
             [ 2; 1; 0 ])
      in
      Fun.protect
        ~finally:(fun () -> List.iter Daemon_spawn.stop_pid !pids)
        (fun () ->
          let cfg =
            Network.Config.(
              default |> with_noise noise |> with_dial_noise dial_noise
              |> with_round_deadline_ms 60_000.
              |> with_handshake_timeout_ms 30_000.
              |> with_max_retries 4 |> with_flap_grace_ms 5_000.)
          in
          let cfg =
            match link_latency with
            | None -> cfg
            | Some lat -> (
                match Shaper.parse lat with
                | Ok s ->
                    Network.Config.with_link
                      (Shaper.with_seed "bench-churn-coord" s)
                      cfg
                | Error e -> failwith ("--link-latency " ^ lat ^ ": " ^ e))
          in
          match
            Network.of_config_tcp cfg ~addr:(Addr.loopback ~port:ports.(0))
          with
          | Error e -> failwith ("of_config_tcp: " ^ e)
          | Ok net ->
              connect_clients net;
              let r = f ~seed ~ports ~pids net in
              Network.shutdown net;
              r)
    in
    (* Rounds/sec with every link (daemon hops and the coordinator's)
       behind an emulated one-way latency: 25 ms ≈ 50 ms RTT per link,
       50 ms ≈ 100 ms RTT per link. *)
    let wan_rows =
      List.concat_map
        (fun latency_ms ->
          List.map
            (fun jobs ->
              let ms, _ =
                over_tcp ~jobs
                  ~link_latency:(string_of_int latency_ms)
                  (fun ~seed:_ ~ports:_ ~pids:_ net -> measure net)
              in
              Printf.printf
                "  link %2d ms (~%3d ms RTT) jobs=%-3d %7.1f ms/round  %5.2f \
                 rounds/sec\n"
                latency_ms (2 * latency_ms) jobs ms (1000. /. ms);
              T.Json.Obj
                [
                  ("link_latency_ms", T.Json.Num (float_of_int latency_ms));
                  ("approx_rtt_ms", T.Json.Num (float_of_int (2 * latency_ms)));
                  ("jobs", T.Json.Num (float_of_int jobs));
                  ("ms_per_round", T.Json.Num ms);
                  ("rounds_per_sec", T.Json.Num (1000. /. ms));
                ])
            [ 1; 4 ])
        [ 25; 50 ]
    in
    (* Round latency vs flap rate: the middle server's upstream link
       flaps in 0 / 1 / 2 / all 4 of the measured rounds; the outbox +
       flap grace must absorb every outage without a retry, so attempts
       stays at one per round while ms/round climbs. *)
    let flap_rows =
      List.map
        (fun flaps ->
          let plan =
            if flaps = 0 then None
            else Some (1, Printf.sprintf "flap(10)@2:1x%d" flaps)
          in
          let ms, attempts =
            over_tcp ~jobs:1 ?fault_plan:plan
              (fun ~seed:_ ~ports:_ ~pids:_ net -> measure net)
          in
          Printf.printf
            "  flaps=%d/%d rounds: %7.1f ms/round, %d attempt(s) total\n"
            flaps rounds ms attempts;
          T.Json.Obj
            [
              ("flapped_rounds", T.Json.Num (float_of_int flaps));
              ("measured_rounds", T.Json.Num (float_of_int rounds));
              ("ms_per_round", T.Json.Num ms);
              ("total_attempts", T.Json.Num (float_of_int attempts));
            ])
        [ 0; 1; 2; 4 ]
    in
    (* Reconnect storm under emulated latency: SIGKILL the middle
       daemon, restart it, time the first recovered round. *)
    let recovery_ms =
      over_tcp ~jobs:1 ~link_latency:"25"
        (fun ~seed ~ports ~pids net ->
          ignore (Network.run ~kind:Round.Conversation net);
          let victim = List.nth !pids 1 in
          Unix.kill victim Sys.sigkill;
          ignore (Unix.waitpid [] victim);
          let t0 = Unix.gettimeofday () in
          pids :=
            List.mapi
              (fun i pid ->
                if i = 1 then
                  spawn_daemon ~jobs:1 ~seed ~ports ~link_latency:"25" 1
                else pid)
              !pids;
          let r = Network.run ~kind:Round.Conversation net in
          let dt = 1000. *. (Unix.gettimeofday () -. t0) in
          if r.Network.failure <> None then
            failwith "churn reconnect storm: round did not recover";
          Printf.printf
            "  reconnect storm at 25 ms links: recovered in %.0f ms (%d \
             attempt(s))\n"
            dt r.Network.attempts;
          dt)
    in
    (* Bring-up: from spawning a chain (last server first, as above) to
       the coordinator's established link, the median of 5 chains.  Most
       of it is links redialing daemons that do not listen yet. *)
    let bringup_ms =
      let once () =
        let ports = Daemon_spawn.free_ports 3 in
        let t0 = Unix.gettimeofday () in
        let pids =
          List.map (spawn_daemon ~jobs:1 ~seed:"bench-churn" ~ports) [ 2; 1; 0 ]
        in
        Fun.protect
          ~finally:(fun () -> List.iter Daemon_spawn.stop_pid pids)
          (fun () ->
            match
              Remote.connect ~handshake_timeout_ms:30_000.
                ~addr:(Addr.loopback ~port:ports.(0)) ()
            with
            | Error e -> failwith ("churn bring-up: " ^ e)
            | Ok remote ->
                let ms = 1000. *. (Unix.gettimeofday () -. t0) in
                Remote.shutdown remote;
                ms)
      in
      let ms = List.nth (List.sort compare (List.init 5 (fun _ -> once ()))) 2 in
      Printf.printf "  bring-up, spawn to coordinator link: %.1f ms (median of 5)\n"
        ms;
      ms
    in
    write_artifact ~benchmark:"churn"
      [
        ("servers", T.Json.Num 3.);
        ("clients", T.Json.Num (float_of_int n_clients));
        ("rounds_per_config", T.Json.Num (float_of_int rounds));
        ("wan_rows", T.Json.List wan_rows);
        ("flap_rows", T.Json.List flap_rows);
        ("reconnect_recovery_ms", T.Json.Num recovery_ms);
        ("bringup_ms", T.Json.Num bringup_ms);
      ]
  end

(* ------------------------------------------------------------------ *)
(* Scale: a 100k-client population through the streamed entry tier     *)
(* ------------------------------------------------------------------ *)

(* The paper's Figure 9 headline: 68,000 messages/sec end-to-end at one
   million users on three 36-core servers.  This section pushes a
   vectorized synthetic population ([Vuvuzela_loadgen]) through a real
   deployment — by default three loopback-TCP daemons with the sharded
   dead-drop store and every link streaming chunked parts — and records
   msgs/sec, ms/round and the peak-RSS high-water marks (VmHWM) of the
   coordinator and every daemon, per population × job count.  Every
   round is verified end to end (each pair's message delivered, the
   loner's slot empty) before it counts.

   Knobs: SCALE_POPS (default "1000,10000,100000"), SCALE_JOBS
   (default "1,4"), SCALE_TRANSPORT ("tcp" | "local", default "tcp"),
   SCALE_ROUNDS (timed rounds per cell, default 1).  CI runs the
   in-process smoke: SCALE_TRANSPORT=local SCALE_POPS=5000. *)
let scale_bench () =
  section
    "SCALE - 100k-client load generator, streamed entry, sharded drops \
     (writes BENCH_scale.json)";
  let module T = Vuvuzela_telemetry in
  let module Addr = Vuvuzela_transport.Addr in
  let module Loadgen = Vuvuzela_loadgen.Loadgen in
  let env_ints name default =
    match Sys.getenv_opt name with
    | None | Some "" -> default
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
  in
  let pops = env_ints "SCALE_POPS" [ 1_000; 10_000; 100_000 ] in
  let jobs_list = env_ints "SCALE_JOBS" [ 1; 4 ] in
  let rounds =
    match env_ints "SCALE_ROUNDS" [ 1 ] with r :: _ -> max 1 r | [] -> 1
  in
  let transport =
    match Sys.getenv_opt "SCALE_TRANSPORT" with
    | Some "local" -> `Local
    | _ -> `Tcp
  in
  let chunk = 512 and shards = 8 in
  let noise = Laplace.params ~mu:4. ~b:1. in
  let dial_noise = Laplace.params ~mu:1. ~b:1. in
  (* Peak-RSS proxy: the VmHWM high-water mark from /proc/<pid>/status,
     in kB (0 where /proc is unavailable). *)
  let vm_hwm_kb pid =
    match open_in (Printf.sprintf "/proc/%d/status" pid) with
    | exception Sys_error _ -> 0
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                String.fold_left
                  (fun acc c ->
                    if c >= '0' && c <= '9'
                    then (acc * 10) + Char.code c - Char.code '0'
                    else acc)
                  0 line
              else scan ()
        in
        Fun.protect ~finally:(fun () -> close_in ic) scan
  in
  let server_bin = Daemon_spawn.server_bin () in
  let spawn_daemon ~jobs ~seed ~ports index =
    Daemon_spawn.spawn_server ~bin:server_bin ~ports ~index ~seed
      [ "--mu"; "4"; "--noise-b"; "1"; "--dial-mu"; "1"; "--dial-b"; "1";
        "--deterministic-noise"; "--jobs"; string_of_int jobs;
        "--deaddrop-shards"; string_of_int shards;
        "--pipeline"; "--pipeline-chunk"; string_of_int chunk ]
  in
  (* One cell: [rounds] verified conversation rounds of [n] clients
     through [round_streamed]; reports (ms/round, msgs/sec, delivered,
     expected). *)
  let run_cell ~n ~jobs ~server_pks ~round_streamed =
    let pop = Loadgen.create ~seed:(Printf.sprintf "scale-%d" n) ~n () in
    let pool =
      if jobs > 1 then Some (Vuvuzela_parallel.Pool.create ~jobs) else None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Vuvuzela_parallel.Pool.shutdown pool)
      (fun () ->
        let delivered = ref 0 and expected = ref 0 in
        let t0 = Unix.gettimeofday () in
        for round = 1 to rounds do
          let replies =
            round_streamed ~round ~produce:(fun feed ->
                Loadgen.feed_conversation ?pool pop ~round ~server_pks ~chunk
                  ~sink:feed)
          in
          let d = Loadgen.verify ?pool pop ~round replies in
          delivered := !delivered + d.Loadgen.delivered;
          expected := !expected + d.Loadgen.expected;
          if d.Loadgen.delivered <> d.Loadgen.expected then
            failwith
              (Printf.sprintf "scale: round %d delivered %d/%d" round
                 d.Loadgen.delivered d.Loadgen.expected);
          if d.Loadgen.lone <> n mod 2 then
            failwith "scale: loner did not see the empty result"
        done;
        let dt = Unix.gettimeofday () -. t0 in
        let ms_per_round = 1000. *. dt /. float_of_int rounds in
        let msgs_per_sec = float_of_int (n * rounds) /. dt in
        (ms_per_round, msgs_per_sec, !delivered, !expected))
  in
  let row ~n ~jobs ~server_rss (ms, mps, delivered, expected) =
    Printf.printf
      "  n=%-7d jobs=%-3d %9.1f ms/round %9.0f msgs/sec   coordinator \
       %d MB peak, servers %d MB peak\n%!"
      n jobs ms mps
      (vm_hwm_kb (Unix.getpid ()) / 1024)
      (server_rss / 1024);
    T.Json.Obj
      [
        ("population", T.Json.Num (float_of_int n));
        ("jobs", T.Json.Num (float_of_int jobs));
        ("ms_per_round", T.Json.Num ms);
        ("msgs_per_sec", T.Json.Num mps);
        ("delivered", T.Json.Num (float_of_int delivered));
        ("expected", T.Json.Num (float_of_int expected));
        ( "coordinator_peak_rss_kb",
          T.Json.Num (float_of_int (vm_hwm_kb (Unix.getpid ()))) );
        ("server_peak_rss_kb", T.Json.Num (float_of_int server_rss));
      ]
  in
  let tcp_cell ~n ~jobs =
    let seed = "bench-scale" in
    let ports = Daemon_spawn.free_ports 3 in
    let pids = List.map (spawn_daemon ~jobs ~seed ~ports) [ 2; 1; 0 ] in
    Fun.protect
      ~finally:(fun () -> List.iter Daemon_spawn.stop_pid pids)
      (fun () ->
        match
          Remote.connect ~handshake_timeout_ms:30_000.
            ~addr:(Addr.loopback ~port:ports.(0))
            ()
        with
        | Error e -> failwith ("scale: remote connect: " ^ e)
        | Ok remote ->
            Fun.protect
              ~finally:(fun () -> Remote.shutdown remote)
              (fun () ->
                Remote.set_deadline_ms remote (Some 600_000.);
                let server_pks = Remote.public_keys remote in
                let round_streamed ~round ~produce =
                  match
                    Remote.conversation_round_streamed remote ~round ~produce
                  with
                  | Ok replies -> replies
                  | Error st ->
                      failwith (Format.asprintf "scale: %a" Rpc.pp_status st)
                in
                let cell = run_cell ~n ~jobs ~server_pks ~round_streamed in
                let server_rss =
                  List.fold_left (fun acc pid -> max acc (vm_hwm_kb pid)) 0 pids
                in
                row ~n ~jobs ~server_rss cell))
  in
  let local_cell ~n ~jobs =
    let chain =
      Chain.of_config
        Config.(
          default |> with_seed "bench-scale" |> with_n_servers 3
          |> with_noise noise |> with_dial_noise dial_noise
          |> with_noise_mode Noise.Deterministic |> with_jobs jobs
          |> with_deaddrop_shards shards |> with_pipeline ~chunk true)
    in
    Fun.protect
      ~finally:(fun () -> Chain.shutdown chain)
      (fun () ->
        let server_pks = Chain.public_keys chain in
        let round_streamed ~round ~produce =
          match Chain.conversation_round_streamed chain ~round ~produce with
          | Ok replies -> replies
          | Error st -> failwith (Format.asprintf "scale: %a" Rpc.pp_status st)
        in
        let cell = run_cell ~n ~jobs ~server_pks ~round_streamed in
        (* Servers live in this process: one VmHWM covers both roles. *)
        row ~n ~jobs ~server_rss:(vm_hwm_kb (Unix.getpid ())) cell)
  in
  let can_tcp =
    transport = `Tcp && Daemon_spawn.sockets_allowed ()
    && Sys.file_exists server_bin
  in
  if transport = `Tcp && not can_tcp then
    Printf.printf
      "  loopback TCP unavailable (sandbox or missing %s): falling back to \
       the in-process chain\n"
      server_bin;
  let transport_name = if can_tcp then "loopback-tcp" else "in-process" in
  Printf.printf
    "  transport=%s  shards=%d  chunk=%d  rounds/cell=%d  (paper Figure 9: \
     68,000 msgs/sec at 1M users, 3x36 cores)\n"
    transport_name shards chunk rounds;
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun jobs ->
            if can_tcp then tcp_cell ~n ~jobs else local_cell ~n ~jobs)
          jobs_list)
      pops
  in
  write_artifact ~benchmark:"scale"
    [
      ("transport", T.Json.Str transport_name);
      ("servers", T.Json.Num 3.);
      ("deaddrop_shards", T.Json.Num (float_of_int shards));
      ("entry_chunk", T.Json.Num (float_of_int chunk));
      ("rounds_per_cell", T.Json.Num (float_of_int rounds));
      ("paper_msgs_per_sec", T.Json.Num 68_000.);
      ("rows", T.Json.List rows);
    ]

let () =
  (* BENCH_ONLY=crypto|churn|scale: just that section (used by the CI
     smokes; the full run takes minutes). *)
  if Sys.getenv_opt "BENCH_ONLY" = Some "crypto" then begin
    ignore (crypto_bench () : float);
    exit 0
  end;
  if Sys.getenv_opt "BENCH_ONLY" = Some "churn" then begin
    churn_bench ();
    exit 0
  end;
  if Sys.getenv_opt "BENCH_ONLY" = Some "scale" then begin
    scale_bench ();
    exit 0
  end;
  print_endline "VUVUZELA (SOSP 2015) - evaluation reproduction";
  let ladder_ops_per_sec = crypto_bench () in
  figure6 ();
  figure7 ();
  figure8 ();
  figure9 ();
  figure10 ();
  figure11 ();
  headlines ~ladder_ops_per_sec;
  posteriors ();
  ablation_noise ();
  ablation_m_tuning ();
  baseline_comparison ();
  faults_overhead ();
  churn_bench ();
  scale_bench ();
  workload_summary ();
  line ();
  print_endline "done.  See EXPERIMENTS.md for the paper-vs-measured index."
