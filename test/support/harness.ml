(* See the interface. *)

open Vuvuzela

let round_exn remote ~kind ?(m = 0) ~round requests =
  match
    Remote.round_streamed remote ~kind ~m ~round
      ~produce:(fun feed -> feed requests)
  with
  | Ok replies -> replies
  | Error st -> failwith (Format.asprintf "%a" Rpc.pp_status st)

let run_schedule ?blocked ?late ?(dial_every = 10) net ~rounds =
  let acc = ref [] in
  for i = 1 to rounds do
    if i mod dial_every = 0 then
      acc := Network.run ?blocked ?late ~kind:Round.Dialing net :: !acc;
    acc := Network.run ?blocked ?late ~kind:Round.Conversation net :: !acc
  done;
  List.rev !acc

let noise_payload ?rng ?(kind = Dialing.Plain) ~index () =
  Dialing.encode_payload ~index
    (Dialing.noise_invitations [| Dialing.draw ?rng ~kind () |]).(0)

let pp_event fmt = function
  | Client.Delivered { text; _ } -> Format.fprintf fmt "Delivered %S" text
  | Acked { seq; _ } -> Format.fprintf fmt "Acked %d" seq
  | Incoming_call _ -> Format.fprintf fmt "Incoming_call"
  | Round_failed { round; dialing; status } ->
      Format.fprintf fmt "Round_failed %s%d [%s]"
        (if dialing then "dial " else "")
        round status.Rpc.stage
  | Round_late { round; next_round; dialing } ->
      Format.fprintf fmt "Round_late %s%d->%d"
        (if dialing then "dial " else "")
        round next_round
