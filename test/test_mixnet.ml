(* Mixnet substrate tests: wire codec, shuffle, onion encryption. *)

open Vuvuzela_crypto
open Vuvuzela_mixnet

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let b =
    Wire.encode (fun w ->
        Wire.Writer.u8 w 0xab;
        Wire.Writer.u16 w 0xcdef;
        Wire.Writer.u32 w 0xdeadbeef;
        Wire.Writer.u64 w 0x0123456789abcdef;
        Wire.Writer.bytes_fixed w ~len:3 (Bytes.of_string "xyz");
        Wire.Writer.bytes_var w (Bytes.of_string "hello"))
  in
  match
    Wire.decode
      (fun r ->
        let a = Wire.Reader.u8 r in
        let b_ = Wire.Reader.u16 r in
        let c = Wire.Reader.u32 r in
        let d = Wire.Reader.u64 r in
        let e = Wire.Reader.bytes_fixed r 3 in
        let f = Wire.Reader.bytes_var r in
        (a, b_, c, d, Bytes.to_string e, Bytes.to_string f))
      b
  with
  | Ok (a, b_, c, d, e, f) ->
      Alcotest.(check int) "u8" 0xab a;
      Alcotest.(check int) "u16" 0xcdef b_;
      Alcotest.(check int) "u32" 0xdeadbeef c;
      Alcotest.(check int) "u64" 0x0123456789abcdef d;
      Alcotest.(check string) "fixed" "xyz" e;
      Alcotest.(check string) "var" "hello" f
  | Error msg -> Alcotest.fail msg

let test_wire_underflow () =
  match Wire.decode (fun r -> Wire.Reader.u32 r) (Bytes.of_string "ab") with
  | Ok _ -> Alcotest.fail "expected underflow error"
  | Error _ -> ()

let test_wire_trailing () =
  match Wire.decode (fun r -> Wire.Reader.u8 r) (Bytes.of_string "ab") with
  | Ok _ -> Alcotest.fail "expected trailing-bytes error"
  | Error msg ->
      Alcotest.(check bool) "mentions trailing" true
        (String.length msg > 0)

let test_wire_fixed_size_check () =
  Alcotest.check_raises "bytes_fixed validates"
    (Wire.Error "Writer.bytes_fixed: expected 4 bytes, got 2") (fun () ->
      ignore
        (Wire.encode (fun w ->
             Wire.Writer.bytes_fixed w ~len:4 (Bytes.of_string "ab"))))

(* ------------------------------------------------------------------ *)
(* Shuffle                                                             *)
(* ------------------------------------------------------------------ *)

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun x ->
      if x < 0 || x >= n || seen.(x) then false
      else begin
        seen.(x) <- true;
        true
      end)
    p

let test_shuffle_permutation () =
  let rng = Drbg.of_string "shuffle" in
  for n = 0 to 20 do
    let p = Shuffle.random_permutation ~rng n in
    if not (is_permutation p) then
      Alcotest.failf "not a permutation at n=%d" n
  done

let test_shuffle_inverse () =
  let rng = Drbg.of_string "shuffle-inv" in
  let a = Array.init 100 Fun.id in
  let p = Shuffle.random_permutation ~rng 100 in
  let shuffled = Shuffle.apply p a in
  Alcotest.(check (array int)) "unapply inverts" a (Shuffle.unapply p shuffled)

let test_shuffle_uniformity () =
  (* Chi-squared-ish sanity check: over many draws of S_3, each of the 6
     permutations appears with roughly equal frequency. *)
  let rng = Drbg.of_string "shuffle-uniform" in
  let counts = Hashtbl.create 6 in
  let trials = 6000 in
  for _ = 1 to trials do
    let p = Shuffle.random_permutation ~rng 3 in
    let key = Printf.sprintf "%d%d%d" p.(0) p.(1) p.(2) in
    Hashtbl.replace counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "all 6 permutations occur" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun key n ->
      if n < 800 || n > 1200 then
        Alcotest.failf "permutation %s frequency %d far from 1000" key n)
    counts

let test_shuffle_mismatch () =
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Shuffle.apply: size mismatch") (fun () ->
      ignore (Shuffle.apply [| 0; 1 |] [| 1 |]))

(* ------------------------------------------------------------------ *)
(* Onion                                                               *)
(* ------------------------------------------------------------------ *)

let make_chain ~n =
  let rng = Drbg.of_string "onion-chain" in
  List.init n (fun _ -> Drbg.keypair ~rng ())

let test_onion_roundtrip () =
  let servers = make_chain ~n:3 in
  let pks = List.map snd servers in
  let payload = Bytes.of_string "the payload" in
  let rng = Drbg.of_string "onion-rt" in
  let wrapped = Onion.wrap ~rng ~server_pks:pks ~round:7 payload in
  Alcotest.(check int) "request size"
    (Onion.request_size ~chain_len:3 ~payload_len:11)
    (Bytes.length wrapped.onion);
  (* Peel through the chain. *)
  let inner, secrets_srv =
    List.fold_left
      (fun (onion, secrets) (sk, _) ->
        match Onion.peel ~server_sk:sk ~round:7 onion with
        | Some (inner, s) -> (inner, s :: secrets)
        | None -> Alcotest.fail "peel failed")
      (wrapped.onion, []) servers
  in
  Alcotest.(check string) "payload recovered" "the payload"
    (Bytes.to_string inner);
  (* Layer secrets agree between client and servers. *)
  List.iteri
    (fun i s ->
      Alcotest.(check string)
        (Printf.sprintf "layer %d secret" i)
        (Bytes_util.to_hex wrapped.secrets.(i))
        (Bytes_util.to_hex s))
    (List.rev secrets_srv);
  (* Reply path: innermost (last) server seals first. *)
  let reply = Bytes.of_string "reply!" in
  let sealed =
    List.fold_left
      (fun acc s -> Onion.seal_reply ~secret:s ~round:7 acc)
      reply secrets_srv
  in
  Alcotest.(check int) "reply size"
    (6 + (3 * Onion.reply_overhead))
    (Bytes.length sealed);
  match Onion.unwrap_reply ~secrets:wrapped.secrets ~round:7 sealed with
  | Some r -> Alcotest.(check string) "reply recovered" "reply!" (Bytes.to_string r)
  | None -> Alcotest.fail "unwrap_reply failed"

let test_onion_wrong_round () =
  let servers = make_chain ~n:2 in
  let pks = List.map snd servers in
  let wrapped = Onion.wrap ~server_pks:pks ~round:1 (Bytes.of_string "x") in
  let sk = fst (List.hd servers) in
  Alcotest.(check bool) "wrong round fails" true
    (Onion.peel ~server_sk:sk ~round:2 wrapped.onion = None);
  Alcotest.(check bool) "right round works" true
    (Onion.peel ~server_sk:sk ~round:1 wrapped.onion <> None)

let test_onion_wrong_server () =
  let servers = make_chain ~n:2 in
  let pks = List.map snd servers in
  let wrapped = Onion.wrap ~server_pks:pks ~round:1 (Bytes.of_string "x") in
  (* The second server cannot peel the outer layer. *)
  let sk2 = fst (List.nth servers 1) in
  Alcotest.(check bool) "wrong server fails" true
    (Onion.peel ~server_sk:sk2 ~round:1 wrapped.onion = None)

let test_onion_tamper () =
  let servers = make_chain ~n:1 in
  let pks = List.map snd servers in
  let wrapped = Onion.wrap ~server_pks:pks ~round:1 (Bytes.of_string "abc") in
  let sk = fst (List.hd servers) in
  (* Flip a byte in the sealed part (past the 32-byte ephemeral key). *)
  let bad = Bytes.copy wrapped.onion in
  Bytes.set bad 40 (Char.chr (Char.code (Bytes.get bad 40) lxor 1));
  Alcotest.(check bool) "tampered onion rejected" true
    (Onion.peel ~server_sk:sk ~round:1 bad = None);
  Alcotest.(check bool) "short onion rejected" true
    (Onion.peel ~server_sk:sk ~round:1 (Bytes.make 10 'x') = None)

let test_onion_sizes_uniform () =
  (* Two different payloads of the same size produce same-size onions —
     indistinguishability precondition. *)
  let pks = List.map snd (make_chain ~n:4) in
  let w1 = Onion.wrap ~server_pks:pks ~round:3 (Bytes.make 272 'a') in
  let w2 = Onion.wrap ~server_pks:pks ~round:3 (Bytes.make 272 'z') in
  Alcotest.(check int) "same size"
    (Bytes.length w1.onion) (Bytes.length w2.onion);
  Alcotest.(check int) "48 bytes per layer" (272 + (4 * 48))
    (Bytes.length w1.onion)

let test_onion_empty_chain () =
  Alcotest.check_raises "empty chain rejected"
    (Invalid_argument "Onion.wrap: empty chain") (fun () ->
      ignore (Onion.wrap ~server_pks:[] ~round:0 Bytes.empty))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"shuffle apply/unapply roundtrip" ~count:100
      (pair (int_range 0 200) int)
      (fun (n, salt) ->
        let rng = Drbg.of_string (Printf.sprintf "prop-shuffle-%d" salt) in
        let a = Array.init n (fun i -> i * 3) in
        let p = Shuffle.random_permutation ~rng n in
        Shuffle.unapply p (Shuffle.apply p a) = a);
    Test.make ~name:"onion roundtrip for any chain length and payload"
      ~count:25
      (pair (int_range 1 6) (int_range 0 300))
      (fun (n, len) ->
        let rng = Drbg.of_string "prop-onion" in
        let servers = List.init n (fun _ -> Drbg.keypair ~rng ()) in
        let pks = List.map snd servers in
        let payload = Drbg.generate rng len in
        let w = Onion.wrap ~rng ~server_pks:pks ~round:5 payload in
        let final =
          List.fold_left
            (fun acc (sk, _) ->
              match acc with
              | None -> None
              | Some onion -> (
                  match Onion.peel ~server_sk:sk ~round:5 onion with
                  | Some (inner, _) -> Some inner
                  | None -> None))
            (Some w.onion) servers
        in
        final = Some payload);
    Test.make ~name:"wire var-bytes roundtrip" ~count:100
      (string_of_size (Gen.int_bound 500))
      (fun s ->
        let b = Wire.encode (fun w -> Wire.Writer.bytes_var w (Bytes.of_string s)) in
        Wire.decode (fun r -> Bytes.to_string (Wire.Reader.bytes_var r)) b
        = Ok s);
  ]

let suite =
  let tc = Alcotest.test_case in
  ( "mixnet",
    [
      tc "wire roundtrip" `Quick test_wire_roundtrip;
      tc "wire underflow" `Quick test_wire_underflow;
      tc "wire trailing bytes" `Quick test_wire_trailing;
      tc "wire fixed size check" `Quick test_wire_fixed_size_check;
      tc "shuffle yields permutations" `Quick test_shuffle_permutation;
      tc "shuffle inverse" `Quick test_shuffle_inverse;
      tc "shuffle uniformity" `Quick test_shuffle_uniformity;
      tc "shuffle size mismatch" `Quick test_shuffle_mismatch;
      tc "onion roundtrip (3 servers)" `Quick test_onion_roundtrip;
      tc "onion wrong round" `Quick test_onion_wrong_round;
      tc "onion wrong server" `Quick test_onion_wrong_server;
      tc "onion tamper" `Quick test_onion_tamper;
      tc "onion sizes uniform" `Quick test_onion_sizes_uniform;
      tc "onion empty chain" `Quick test_onion_empty_chain;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props )
